//! The hardware-automated PRAM controller (§III-B, §V-B).
//!
//! [`PramController`] owns the two LPDDR2-NVM channels and services plain
//! read/write requests from the accelerator's MCU:
//!
//! * **Reads** run the three-phase sequence with phase skipping
//!   ([`crate::cmdgen`]). Under an interleaving scheduler, word accesses
//!   overlap across partitions and row buffers (Fig. 12); under the noop
//!   (bare-metal) scheduler each channel services one word at a time.
//! * **Writes** run the §V-B overlay-window register sequence — command
//!   code → row address → burst size → program-buffer fill → execute —
//!   and are *posted*: the requester resumes once the execute register is
//!   accepted, while the 10–18 µs cell program proceeds in the module.
//!   Each module has a single program buffer, so writes to a module
//!   serialize at the cell-program rate; that is the PRAM write wall the
//!   selective-erasing optimization attacks.
//! * **Selective erasing** pre-RESETs announced overwrite targets during
//!   partition idle windows, making the following overwrite SET-only
//!   (10 µs instead of 18 µs).

use crate::addr::{AddressMap, Fragment, Target};
use crate::cmdgen::plan_read;
use crate::phy::PhyParams;
use crate::resilience::{EccModel, EccOutcome, RetireMap, RetryPolicy};
use crate::sched::SchedulerKind;
use crate::wear::StartGap;
use pram::cell::WORD_BYTES;
use pram::geometry::{PramGeometry, RowId};
use pram::timing::{BurstLen, PramTiming};
use pram::{PhaseTiming, PramChannel};
use sim_core::energy::{EnergyAccount, EnergyBook, Joules};
use sim_core::fault::{domain, FaultCounters, FaultPlan};
use sim_core::mem::{Access, MemoryBackend};
use sim_core::probe::{AttrSpan, Cause, Probe};
use sim_core::snapshot::{check_config, check_counter, SnapshotError, StateImage, COUNTER_CEILING};
use sim_core::time::Picos;
use util::fxhash::{FxHashMap, FxHashSet};
use util::pow2;
use util::rng::stream_unit;
use util::telemetry::{MetricSet, Track};

/// Per-word-operation FPGA logic energy (translator + command generator).
const E_CTRL_OP: Joules = Joules::from_pj(200);

/// Advances an optional latency-attribution span. A no-op when
/// attribution is off (`attr` is `None`), so the fragment paths pay one
/// predictable branch per site instead of a probe dispatch.
#[inline]
fn adv(attr: &mut Option<&mut AttrSpan>, cause: Cause, to: Picos) {
    if let Some(a) = attr {
        a.advance(cause, to);
    }
}

/// Construction parameters of the PRAM subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsystemConfig {
    /// Device timing (Table II by default).
    pub timing: PramTiming,
    /// Channel/module striping layout.
    pub map: AddressMap,
    /// Scheduler variant (the Fig. 13 axis).
    pub scheduler: SchedulerKind,
    /// PHY parameters.
    pub phy: PhyParams,
    /// Write pausing (§VII extension): reads may suspend in-flight
    /// programs instead of queueing behind them.
    pub write_pausing: bool,
    /// Start-gap wear leveling (§VII): `Some(interval)` rotates each
    /// module's rows one slot every `interval` writes.
    pub wear_leveling: Option<u64>,
    /// Determinism seed.
    pub seed: u64,
}

util::json_struct!(SubsystemConfig {
    timing,
    map,
    scheduler,
    phy,
    write_pausing,
    wear_leveling,
    seed,
});

impl SubsystemConfig {
    /// The paper configuration: 2 channels × 16 modules, Table II timing.
    pub fn paper(scheduler: SchedulerKind, seed: u64) -> Self {
        SubsystemConfig {
            timing: PramTiming::table2(),
            map: AddressMap::paper(),
            scheduler,
            phy: PhyParams::default(),
            write_pausing: false,
            wear_leveling: None,
            seed,
        }
    }

    /// A small 1-channel × 4-module subsystem for fast unit tests.
    pub fn small(scheduler: SchedulerKind, seed: u64) -> Self {
        SubsystemConfig {
            timing: PramTiming::table2(),
            map: AddressMap {
                channels: 1,
                modules_per_channel: 4,
                word_bytes: 32,
            },
            scheduler,
            phy: PhyParams::default(),
            write_pausing: false,
            wear_leveling: None,
            seed,
        }
    }
}

/// Controller-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests serviced.
    pub writes: u64,
    /// 32 B word reads issued to devices.
    pub words_read: u64,
    /// 32 B word writes issued to devices.
    pub words_written: u64,
    /// Pre-active phases skipped on RAB hits.
    pub pre_active_skips: u64,
    /// Activate phases skipped on RDB hits.
    pub activate_skips: u64,
    /// Background selective erases that made a write SET-only.
    pub preerase_hits: u64,
    /// Writes that were eligible for pre-erase but had no idle window.
    pub preerase_misses: u64,
    /// Start-gap relocations performed.
    pub gap_moves: u64,
    /// Word reads whose address phases overlapped an in-flight burst on
    /// the same channel — the multi-resource interleaving win (Fig. 12).
    pub overlap_wins: u64,
    /// Word accesses that stalled behind the channel serialization
    /// point because the scheduler does not interleave.
    pub overlap_losses: u64,
    /// Sum of read latencies (issue → data).
    pub read_latency_sum: Picos,
    /// Sum of write latencies (issue → posted).
    pub write_latency_sum: Picos,
}

util::json_struct!(CtrlStats {
    reads,
    writes,
    words_read,
    words_written,
    pre_active_skips,
    activate_skips,
    preerase_hits,
    preerase_misses,
    gap_moves,
    overlap_wins,
    overlap_losses,
    read_latency_sum,
    write_latency_sum,
});

/// Per-line fault bookkeeping: draw indices (incremented unconditionally
/// so fault decisions stay independent of the configured rates) plus the
/// accumulated error budget.
#[derive(Debug, Clone, Copy, Default)]
struct LineFaultState {
    reads: u64,
    writes: u64,
    reads_since_write: u64,
    errors: u32,
}

util::json_struct!(LineFaultState {
    reads,
    writes,
    reads_since_write,
    errors
});

impl LineFaultState {
    /// Checks a decoded line: its draw indices at most
    /// [`COUNTER_CEILING`], its errors below `budget` (0 under a budget
    /// of 0).
    fn check(&self, budget: u32) -> Result<(), String> {
        check_counter("reads", self.reads)?;
        check_counter("writes", self.writes)?;
        check_counter("reads_since_write", self.reads_since_write)?;
        if self.errors >= budget.max(1) {
            return Err(format!(
                "errors is {}, at or past the plan's line_error_budget {budget}",
                self.errors
            ));
        }
        Ok(())
    }
}

/// Runtime fault-injection + resilience state for one controller.
///
/// Every fault decision is a stateless hash of
/// `(plan.seed, domain, channel, module, line, access index, attempt)`
/// through [`stream_unit`], so the same access draws the same outcome no
/// matter when — or on which sweep worker — it is simulated, and raising
/// a rate turns a superset of the same trials into faults (exact
/// monotonic degradation).
#[derive(Debug, Clone)]
struct FaultState {
    plan: FaultPlan,
    ecc: EccModel,
    retry: RetryPolicy,
    /// Per channel × module retirement maps over logical word lines.
    retire: Vec<Vec<RetireMap>>,
    /// Per channel × module per-logical-line bookkeeping.
    lines: Vec<Vec<FxHashMap<u64, LineFaultState>>>,
    /// Per channel × module program counts per *physical* slot — after
    /// start-gap rotation, so wear leveling genuinely delays stuck-at
    /// onset.
    slot_writes: Vec<Vec<FxHashMap<u64, u64>>>,
    counters: FaultCounters,
}

util::json_struct!(FaultState {
    plan,
    ecc,
    retry,
    retire,
    lines,
    slot_writes,
    counters
});

/// The FPGA PRAM controller: translator + command generator + datapath
/// over two channels of PRAM modules.
#[derive(Debug, Clone)]
pub struct PramController {
    cfg: SubsystemConfig,
    channels: Vec<PramChannel>,
    /// Per-channel serialization point for the noop scheduler.
    channel_serial: Vec<Picos>,
    /// Per-channel, per-module program-buffer availability.
    program_buffer_free: Vec<Vec<Picos>>,
    /// Global word indexes announced as overwrite targets.
    announced: FxHashSet<u64>,
    /// Last access completion per global word (selective-erase window
    /// detection). Touched once per word access under the
    /// selective-erasing schedulers, hence the cheap deterministic hash.
    last_touch: FxHashMap<u64, Picos>,
    /// Per-channel, per-module start-gap state (when wear leveling is
    /// enabled).
    wear: Option<Vec<Vec<StartGap>>>,
    /// Fault injection + resilience (when a plan is attached).
    faults: Option<Box<FaultState>>,
    stats: CtrlStats,
    /// FPGA per-operation energy, accumulated as a plain account: the
    /// controller charges once per word fragment, and string-keyed
    /// ledger lookups on that path showed up in profiles.
    ctrl_energy: EnergyAccount,
    probe: Probe,
}

impl PramController {
    /// Builds the paper configuration ([`SubsystemConfig::paper`]) with
    /// an explicit scheduler — the common case for system composition.
    pub fn paper(scheduler: SchedulerKind, seed: u64) -> Self {
        Self::new(SubsystemConfig::paper(scheduler, seed))
    }

    /// Builds the subsystem: channels, modules, PHY state.
    ///
    /// # Panics
    ///
    /// Panics if the address map's word is not the device's 32 B row
    /// word: a fragment must map onto exactly one row.
    pub fn new(cfg: SubsystemConfig) -> Self {
        assert_eq!(
            cfg.map.word_bytes, WORD_BYTES as u64,
            "the address map's word must be the {WORD_BYTES} B row word"
        );
        let mut channels: Vec<PramChannel> = (0..cfg.map.channels)
            .map(|c| {
                PramChannel::new(
                    cfg.timing,
                    cfg.map.modules_per_channel,
                    cfg.seed.wrapping_add(c as u64 * 1000),
                )
            })
            .collect();
        if cfg.write_pausing {
            for ch in &mut channels {
                for i in 0..ch.module_count() {
                    ch.module_mut(i).set_write_pausing(true);
                }
            }
        }
        let wear = cfg.wear_leveling.map(|interval| {
            let words = channels[0].module(0).geometry().module_bytes() / cfg.map.word_bytes;
            channels
                .iter()
                .map(|ch| {
                    (0..ch.module_count())
                        // one spare slot is reserved at the top of the
                        // module, so the leveler covers words - 1 lines.
                        .map(|_| StartGap::new(words - 1, interval))
                        .collect()
                })
                .collect()
        });
        let program_buffer_free = channels
            .iter()
            .map(|ch| vec![Picos::ZERO; ch.module_count()])
            .collect();
        PramController {
            channel_serial: vec![Picos::ZERO; channels.len()],
            program_buffer_free,
            channels,
            announced: FxHashSet::default(),
            last_touch: FxHashMap::default(),
            wear,
            faults: None,
            stats: CtrlStats::default(),
            ctrl_energy: EnergyAccount::default(),
            probe: Probe::disabled(),
            cfg,
        }
    }

    /// Attaches a seeded fault-injection plan. Injected bit errors never
    /// corrupt returned data: correctable ones are absorbed by ECC,
    /// uncorrectable ones pay a bounded retry latency, and lines that
    /// exhaust their error budget are retired onto reserved spares.
    pub fn with_faults(mut self, plan: &FaultPlan) -> Self {
        let words = self.channels[0].module(0).geometry().module_bytes() / self.cfg.map.word_bytes;
        // With wear leveling the top line is the start-gap spare slot,
        // so the retirement line space stops one short of it.
        let usable = if self.wear.is_some() {
            words - 1
        } else {
            words
        };
        let retire = self
            .channels
            .iter()
            .map(|ch| {
                (0..ch.module_count())
                    .map(|_| RetireMap::new(usable, plan.resilience.spare_lines))
                    .collect()
            })
            .collect();
        let lines = self
            .channels
            .iter()
            .map(|ch| vec![FxHashMap::default(); ch.module_count()])
            .collect();
        let slot_writes = self
            .channels
            .iter()
            .map(|ch| vec![FxHashMap::default(); ch.module_count()])
            .collect();
        self.faults = Some(Box::new(FaultState {
            ecc: EccModel::new(plan.resilience.ecc_strength),
            retry: RetryPolicy::new(plan.resilience.max_retries, plan.resilience.retry_backoff),
            plan: plan.clone(),
            retire,
            lines,
            slot_writes,
            counters: FaultCounters::default(),
        }));
        self
    }

    /// The fault ledger, when a plan is attached.
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.faults.as_ref().map(|f| &f.counters)
    }

    /// Retirement-map resolution of a module byte address: failing lines
    /// are redirected to their spare before start-gap leveling applies.
    fn retire_resolve(&self, ch: usize, md: usize, module_addr: u64) -> u64 {
        let Some(fs) = self.faults.as_ref() else {
            return module_addr;
        };
        let wb = self.cfg.map.word_bytes;
        fs.retire[ch][md].resolve(module_addr / wb) * wb + module_addr % wb
    }

    /// Trace track for a module's row data buffer: one lane per module
    /// across both channels.
    fn rdb_track(&self, ch: usize, module: usize) -> Track {
        Track::new(
            "rdb",
            (ch * self.cfg.map.modules_per_channel + module) as u32,
        )
    }

    /// Applies the start-gap remap to a (retirement-resolved) module byte
    /// address and, on writes, advances the gap (performing the
    /// relocation copy).
    fn wear_remap(
        &mut self,
        at: Picos,
        ch: usize,
        md: usize,
        module_addr: u64,
        is_write: bool,
    ) -> u64 {
        let Some(wear) = self.wear.as_mut() else {
            return module_addr;
        };
        let wb = self.cfg.map.word_bytes;
        let sg = &mut wear[ch][md];
        let word = module_addr / wb;
        let offset = module_addr % wb;
        let mapped = sg.map(word) * wb + offset;
        if is_write {
            if let Some(mv) = sg.on_write() {
                // The gap move copies one physical line.
                let module = self.channels[ch].module_mut(md);
                let from = module.geometry().decode(mv.from * wb).0;
                let to = module.geometry().decode(mv.to * wb).0;
                module.relocate(at, from, to);
                self.stats.gap_moves += 1;
            }
        }
        mapped
    }

    /// The configuration.
    pub fn config(&self) -> &SubsystemConfig {
        &self.cfg
    }

    /// Controller statistics.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Total byte capacity of the subsystem.
    pub fn capacity_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.capacity_bytes()).sum()
    }

    /// Channel access for inspection.
    pub fn channel(&self, i: usize) -> &PramChannel {
        &self.channels[i]
    }

    /// Subsystem endurance summary: `(max programs on any row across all
    /// modules, total rows ever touched)` — what wear leveling flattens.
    pub fn endurance(&self) -> (u32, usize) {
        let mut max = 0u32;
        let mut rows = 0usize;
        for ch in &self.channels {
            for m in ch.modules() {
                let (m_max, m_rows) = m.endurance();
                max = max.max(m_max);
                rows += m_rows;
            }
        }
        (max, rows)
    }

    /// Functional write carrying real bytes (integration tests and the
    /// kernel-image download path use this; the timing-only
    /// [`MemoryBackend::write`] uses a non-zero filler pattern).
    pub fn write_bytes(&mut self, at: Picos, addr: u64, data: &[u8]) -> Access {
        assert!(!data.is_empty(), "empty write");
        self.write_pass(at, addr, data.len() as u32, Some(data))
    }

    /// Functional read returning the stored bytes.
    pub fn read_bytes(&mut self, at: Picos, addr: u64, len: u32) -> (Access, Vec<u8>) {
        let mut out = Vec::with_capacity(len as usize);
        let a = self.read_pass(at, addr, len, Some(&mut out));
        (a, out)
    }

    /// Resolves what every word of a request issued at `at` over
    /// `[addr, addr + len)` shares, and checks once that the request
    /// stays inside the modules: module addresses grow with the global
    /// address, so its last byte lands highest.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or the request runs past the modules.
    fn pass(&self, at: Picos, addr: u64, len: u32) -> Pass {
        assert!(len > 0, "zero-length request");
        let geometry = *self.channels[0].module(0).geometry();
        let last = self.cfg.map.decompose(addr + (len as u64 - 1));
        geometry.decode(last.module_addr);
        let timing = &self.cfg.timing;
        Pass {
            at,
            interleaves: self.cfg.scheduler.interleaves(),
            selective: self.cfg.scheduler.selective_erase(),
            faulted: self.faults.is_some(),
            remaps: self.faults.is_some() || self.wear.is_some(),
            stores: self.probe.stores_events(),
            sync: self.cfg.phy.sync_latency,
            tck: timing.tck(),
            treset: timing.t_reset_extra + timing.twra,
            geometry,
        }
    }

    /// One read request: every word fragment through the three-phase
    /// protocol, in one pass. With `out: Some(buf)` the bytes are
    /// appended to `buf` (functional read); with `None` only timing
    /// advances, through the identical device walk.
    fn read_pass(
        &mut self,
        at: Picos,
        addr: u64,
        len: u32,
        mut out: Option<&mut Vec<u8>>,
    ) -> Access {
        let p = self.pass(at, addr, len);
        let attr_on = self.probe.attr_on();
        let mut start = Picos::MAX;
        let mut end = Picos::ZERO;
        let mut worst: Option<AttrSpan> = None;
        let mut words = 0;
        for frag in self.cfg.map.frags(addr, len) {
            let a = if attr_on {
                let mut span = AttrSpan::new(at);
                let a = self.read_word(&p, &frag, out.as_deref_mut(), Some(&mut span));
                if a.end > end || worst.is_none() {
                    worst = Some(span);
                }
                a
            } else {
                self.read_word(&p, &frag, out.as_deref_mut(), None)
            };
            start = start.min(a.start);
            end = end.max(a.end);
            words += 1;
        }
        if !p.stores {
            // Each word offers three events: `rab_hit` or `pre_active`,
            // `rdb_hit` or `activate`, and `read`.
            self.probe.count_events(3 * words);
        }
        self.stats.reads += 1;
        self.stats.read_latency_sum += end.saturating_sub(at);
        self.probe.latency("pram.read", end.saturating_sub(at));
        if let Some(span) = &worst {
            self.probe.attr_record("pram.read", span);
        }
        Access { start, end }
    }

    /// One write request: every word fragment through the overlay-window
    /// sequence, in one pass. `data` carries the bytes of a functional
    /// write; `None` programs the timing-only filler.
    fn write_pass(&mut self, at: Picos, addr: u64, len: u32, data: Option<&[u8]>) -> Access {
        let p = self.pass(at, addr, len);
        let attr_on = self.probe.attr_on();
        let mut start = Picos::MAX;
        let mut end = Picos::ZERO;
        let mut worst: Option<AttrSpan> = None;
        let mut off = 0usize;
        let mut words = 0;
        for frag in self.cfg.map.frags(addr, len) {
            let chunk = data.map(|d| &d[off..off + frag.len as usize]);
            let a = if attr_on {
                let mut span = AttrSpan::new(at);
                let a = self.write_word(&p, &frag, chunk, Some(&mut span));
                if a.end > end || worst.is_none() {
                    worst = Some(span);
                }
                a
            } else {
                self.write_word(&p, &frag, chunk, None)
            };
            start = start.min(a.start);
            end = end.max(a.end);
            off += frag.len as usize;
            words += 1;
        }
        if !p.stores {
            // Each word offers two events, `write` and `program`.
            self.probe.count_events(2 * words);
        }
        self.stats.writes += 1;
        self.stats.write_latency_sum += end.saturating_sub(at);
        self.probe.latency("pram.write", end.saturating_sub(at));
        if let Some(span) = &worst {
            self.probe.attr_record("pram.write", span);
        }
        Access { start, end }
    }

    /// When a word bound for channel `ch` may issue: at once under an
    /// interleaving scheduler, else once the channel's previous word is
    /// done — an overlap the scheduler left on the table.
    #[inline]
    fn issue_at(&mut self, p: &Pass, ch: usize) -> Picos {
        if p.interleaves {
            return p.at;
        }
        let serial = self.channel_serial[ch];
        if serial > p.at {
            self.stats.overlap_losses += 1;
        }
        p.at.max(serial)
    }

    /// The physical slot (module word) serving `module_addr` and its
    /// row: retirement first, then start-gap leveling, which advances
    /// (and may move a line) on writes. Without either, the slot is the
    /// logical line.
    #[inline]
    fn locate(
        &mut self,
        p: &Pass,
        at: Picos,
        ch: usize,
        md: usize,
        module_addr: u64,
        is_write: bool,
    ) -> (u64, RowId) {
        let mapped = if p.remaps {
            let resolved = self.retire_resolve(ch, md, module_addr);
            self.wear_remap(at, ch, md, resolved, is_write)
        } else {
            module_addr
        };
        let slot = pow2::div(mapped, WORD_BYTES as u64);
        (slot, p.geometry.row_of_word(slot))
    }

    /// One word of a read pass through the three-phase protocol.
    #[inline]
    fn read_word(
        &mut self,
        p: &Pass,
        frag: &Fragment,
        out: Option<&mut Vec<u8>>,
        mut attr: Option<&mut AttrSpan>,
    ) -> Access {
        let Target {
            channel: ch_idx,
            module: md,
            module_addr,
        } = frag.target;
        let earliest = self.issue_at(p, ch_idx);
        adv(&mut attr, Cause::QueueWait, earliest);
        let line = pow2::div(module_addr, WORD_BYTES as u64);
        let (phys_slot, row) = self.locate(p, earliest, ch_idx, md, module_addr, false);
        let lower_bits = p.geometry.lower_row_bits;
        let (module, _cmd_bus, dq_bus) = self.channels[ch_idx].module_and_buses(md);
        let plan = plan_read(module.buffers(), row, lower_bits, p.interleaves);
        let ba = plan.ba();
        let mut t = earliest + p.sync;
        adv(&mut attr, Cause::ArrayAccess, t);

        // Command issue costs one interface clock per 20-bit packet; the
        // command bus runs well under 20% utilized even on streams, so it
        // is modeled as fixed latency rather than a contended resource.
        let part_track = Track::new("partition", row.partition.0 as u32);
        if plan.skips_pre_active() {
            self.stats.pre_active_skips += 1;
            if p.stores {
                self.probe.instant(part_track, "rab_hit", t);
            }
        } else {
            let pre = module.pre_active(t + p.tck, ba, row.upper(lower_bits));
            adv(&mut attr, Cause::ArrayAccess, t + p.tck);
            adv(&mut attr, Cause::PartitionConflict, pre.start);
            adv(&mut attr, Cause::ArrayAccess, pre.end);
            if p.stores {
                self.probe
                    .span(part_track, "pre_active", pre.start, pre.end);
            }
            t = pre.end;
        }
        if plan.skips_activate() {
            self.stats.activate_skips += 1;
            if p.stores {
                self.probe.instant(part_track, "rdb_hit", t);
            }
        } else {
            let act = module.activate(t + p.tck, ba, row.lower(lower_bits));
            adv(&mut attr, Cause::ArrayAccess, t + p.tck);
            adv(&mut attr, Cause::PartitionConflict, act.start);
            adv(&mut attr, Cause::ArrayAccess, act.end);
            if p.stores {
                self.probe.span(part_track, "activate", act.start, act.end);
            }
            t = act.end;
        }

        // Read phase: the burst arbitrates the shared dq bus; its preamble
        // (RL + tDQSCK) hides behind the previous burst.
        let col_off = (frag.global_addr % WORD_BYTES as u64) as u32;
        let bl = BurstLen::covering(col_off + frag.len);
        let bus_free = dq_bus.free_at();
        if p.interleaves && bus_free > earliest {
            // This word's address phases (tRCD work) ran while an
            // earlier burst still held the channel's DQ bus — the
            // overlap the multi-resource scheduler exists to create.
            self.stats.overlap_wins += 1;
        }
        let rt = module.read_burst_timed(t + p.tck, bus_free, ba, 0, bl);
        let tburst = self.cfg.timing.tburst(bl);
        dq_bus.reserve(rt.end - tburst, tburst);
        if let Some(buf) = out {
            // The RDB the burst read holds `row`, so the burst carried
            // the row's stored word.
            let word = module.peek(row);
            let lo = col_off as usize;
            buf.extend_from_slice(&word[lo..lo + frag.len as usize]);
        }
        if attr.is_some() {
            // Full RAB+RDB hit ⇒ the pre-burst window is buffer read-out,
            // not an array sense; otherwise the sense amps do the work.
            let sense = if plan.skips_pre_active() && plan.skips_activate() {
                Cause::BufferHit
            } else {
                Cause::ArrayAccess
            };
            adv(&mut attr, Cause::ArrayAccess, t + p.tck);
            adv(&mut attr, Cause::BurstWait, rt.start);
            adv(&mut attr, sense, rt.end - tburst);
            adv(&mut attr, Cause::DataBurst, rt.end);
        }
        if p.stores {
            self.probe.span_args(
                self.rdb_track(ch_idx, md),
                "read",
                rt.start,
                rt.end,
                &[("bytes", frag.len as u64)],
            );
        }

        let data_ready = if p.faulted {
            self.read_faults(ch_idx, md, line, phys_slot, row, rt)
        } else {
            rt.end
        };
        if data_ready > rt.end {
            adv(&mut attr, Cause::RetryStall, data_ready);
        }

        self.stats.words_read += 1;
        self.ctrl_energy.charge(E_CTRL_OP);
        if !p.interleaves {
            self.channel_serial[ch_idx] = data_ready;
        }
        // Touch tracking only feeds the selective-erase window search in
        // `write_word`; schedulers without the optimization skip the
        // per-op hash insert entirely (the map stays empty).
        if p.selective {
            let wi = self.cfg.map.word_index(frag.global_addr);
            self.last_touch.insert(wi, data_ready);
        }
        Access {
            start: earliest,
            end: data_ready,
        }
    }

    /// Fault injection + resilience for one word read whose burst ran
    /// over `rt`: ECC classification, bounded retry-with-backoff,
    /// retirement of lines over their error budget. Faults only cost
    /// time — the returned word is never corrupted (correctable flips
    /// are fixed in place, uncorrectable reads re-sense until the data
    /// lands). Returns when the data is ready.
    fn read_faults(
        &mut self,
        ch_idx: usize,
        md: usize,
        line: u64,
        phys_slot: u64,
        row: RowId,
        rt: PhaseTiming,
    ) -> Picos {
        let fs = self.faults.as_mut().expect("called with a fault plan");
        let mut data_ready = rt.end;
        let st = fs.lines[ch_idx][md].entry(line).or_default();
        st.reads += 1;
        let read_idx = st.reads;
        let rsw = st.reads_since_write;
        st.reads_since_write += 1;

        let pf = &fs.plan.pram;
        let seed = fs.plan.seed;
        let ecc = fs.ecc;
        let retry = fs.retry;
        let budget = fs.plan.resilience.line_error_budget;
        let pmul = pf.partition_multiplier(row.partition.0 as usize);
        let p_drift = (pf.drift_rate * pmul).min(1.0);
        let ramp = if pf.disturb_window == 0 {
            1.0
        } else {
            rsw.min(pf.disturb_window) as f64 / pf.disturb_window as f64
        };
        let p_disturb = (pf.read_disturb_rate * pmul * ramp).min(1.0);
        let p_rdb = pf.rdb_corruption_rate.min(1.0);
        let stuck = pf.stuck_at_threshold > 0
            && fs.slot_writes[ch_idx][md]
                .get(&phys_slot)
                .copied()
                .unwrap_or(0)
                >= pf.stuck_at_threshold;
        let (chn, mdn) = (ch_idx as u64, md as u64);
        let draw_flips = |attempt: u64| -> u32 {
            let mut flips = 0u32;
            if p_drift > 0.0 {
                for trial in 0..u64::from(ecc.strength) + 2 {
                    let labels = [domain::DRIFT, chn, mdn, line, read_idx, attempt, trial];
                    if stream_unit(seed, &labels) < p_drift {
                        flips += 1;
                    }
                }
            }
            let labels = [domain::DISTURB, chn, mdn, line, read_idx, attempt];
            if p_disturb > 0.0 && stream_unit(seed, &labels) < p_disturb {
                flips += 1;
            }
            flips
        };
        let rdb_corrupt = |attempt: u64| -> bool {
            let labels = [domain::RDB, chn, mdn, line, read_idx, attempt];
            p_rdb > 0.0 && stream_unit(seed, &labels) < p_rdb
        };

        let flips = draw_flips(0);
        let corrupt = rdb_corrupt(0);
        fs.counters.injected += u64::from(flips) + u64::from(corrupt) + u64::from(stuck);
        let failed =
            stuck || corrupt || matches!(ecc.classify(flips), EccOutcome::Uncorrectable(_));
        if !failed {
            if let EccOutcome::Corrected(_) = ecc.classify(flips) {
                fs.counters.ecc_corrected += 1;
            }
        } else {
            fs.counters.ecc_uncorrectable += 1;
            let service = rt.end - rt.start;
            let mut recovered = false;
            for attempt in 0..retry.max_retries {
                fs.counters.retries += 1;
                data_ready = data_ready + retry.backoff_for(attempt) + service;
                self.ctrl_energy.charge(E_CTRL_OP);
                if stuck {
                    continue; // a worn-out line fails every re-sense
                }
                let a = u64::from(attempt) + 1;
                let corrupt2 = rdb_corrupt(a);
                let flips2 = draw_flips(a);
                fs.counters.injected += u64::from(flips2) + u64::from(corrupt2);
                if corrupt2 || matches!(ecc.classify(flips2), EccOutcome::Uncorrectable(_)) {
                    fs.counters.ecc_uncorrectable += 1;
                    continue;
                }
                if let EccOutcome::Corrected(_) = ecc.classify(flips2) {
                    fs.counters.ecc_corrected += 1;
                }
                recovered = true;
                break;
            }
            if !recovered {
                // The line burned its retry budget: charge its error
                // budget and retire it onto a spare once exceeded.
                let st = fs.lines[ch_idx][md].entry(line).or_default();
                st.errors += 1;
                if st.errors >= budget {
                    st.errors = 0;
                    if let Some(spare) = fs.retire[ch_idx][md].retire(line) {
                        fs.counters.retired_lines += 1;
                        data_ready = self.relocate_to_spare(ch_idx, md, spare, row, data_ready);
                    }
                }
                // Deep recovery (a stronger sense pulse) still lands
                // the data: faults cost time, never bytes.
                data_ready += service;
            }
        }
        if data_ready > rt.end {
            let fs = self.faults.as_mut().expect("called with a fault plan");
            fs.counters.retry_stall_ps += (data_ready - rt.end).as_ps();
        }
        data_ready
    }

    /// Copies `row` onto retired line `spare`'s physical slot, starting
    /// at `at`; returns when the copy is done.
    fn relocate_to_spare(
        &mut self,
        ch: usize,
        md: usize,
        spare: u64,
        row: RowId,
        at: Picos,
    ) -> Picos {
        let spare_slot = match self.wear.as_ref() {
            Some(w) => w[ch][md].map(spare),
            None => spare,
        };
        let module = self.channels[ch].module_mut(md);
        let to = module.geometry().decode(spare_slot * WORD_BYTES as u64).0;
        module.relocate(at, row, to).end
    }

    /// One word of a write pass through the overlay-window sequence.
    #[inline]
    fn write_word(
        &mut self,
        p: &Pass,
        frag: &Fragment,
        data: Option<&[u8]>,
        mut attr: Option<&mut AttrSpan>,
    ) -> Access {
        let Target {
            channel: ch_idx,
            module: md,
            module_addr,
        } = frag.target;
        let earliest = self.issue_at(p, ch_idx);
        adv(&mut attr, Cause::QueueWait, earliest);

        // The module's single program buffer gates the next write.
        let pb_free = self.program_buffer_free[ch_idx][md];
        let t0 = earliest.max(pb_free) + p.sync;
        // Waiting on the previous cell program to release the buffer is
        // the PRAM write wall — the erase/program-blocked bucket.
        adv(&mut attr, Cause::EraseBlocked, earliest.max(pb_free));
        adv(&mut attr, Cause::ArrayAccess, t0);

        let line = pow2::div(module_addr, WORD_BYTES as u64);
        let (phys_slot, row) = self.locate(p, t0, ch_idx, md, module_addr, true);
        let wi = self.cfg.map.word_index(frag.global_addr);
        if p.selective {
            self.pre_erase(p, wi, ch_idx, md, row, t0);
        }

        // §V-B register sequence — command code (0x80), row address
        // (0x8B), burst size (0x93), program buffer (0x800), execute
        // (0xC0) — as one module call. The program buffer takes the
        // whole word: read-modify-write for a partial word (merging
        // against current contents), while a full word overwrites every
        // byte and skips the read.
        let (module, _cmd_bus, dq_bus) = self.channels[ch_idx].module_and_buses(md);
        let mut word = if frag.len as usize == WORD_BYTES {
            [0; WORD_BYTES]
        } else {
            module.peek(row)
        };
        let lo = (frag.global_addr % WORD_BYTES as u64) as usize;
        match data {
            Some(bytes) => word[lo..lo + frag.len as usize].copy_from_slice(bytes),
            None => {
                // Timing-only filler: a non-zero pattern derived from the
                // address (zeros would alias the selective-erase path).
                for (i, b) in word[lo..lo + frag.len as usize].iter_mut().enumerate() {
                    *b = 0xA5u8.wrapping_add((frag.global_addr as u8).wrapping_add(i as u8));
                    if *b == 0 {
                        *b = 0xA5;
                    }
                }
            }
        }
        // Execute is one more command packet; the array program then runs
        // in the background and the program buffer frees when it ends.
        let posted = module.post_program(t0, dq_bus, row, &word);
        let exec_accepted = posted.accepted;
        if let Some(a) = attr {
            for burst in posted.bursts {
                a.advance(Cause::BurstWait, burst.start);
                a.advance(Cause::DataBurst, burst.end);
            }
            a.advance(Cause::ArrayAccess, exec_accepted);
        }

        let prog_end = if p.faulted {
            self.program_faults(ch_idx, md, line, phys_slot, row, posted.program)
        } else {
            posted.program.end
        };
        self.program_buffer_free[ch_idx][md] = prog_end;
        if p.stores {
            let rdb_track = self.rdb_track(ch_idx, md);
            self.probe.span_args(
                rdb_track,
                "write",
                t0,
                exec_accepted,
                &[("bytes", frag.len as u64)],
            );
            self.probe
                .span(rdb_track, "program", exec_accepted, prog_end);
        }

        self.stats.words_written += 1;
        self.ctrl_energy.charge(E_CTRL_OP);
        if !p.interleaves {
            self.channel_serial[ch_idx] = exec_accepted;
        }
        // As in `read_word`: touch tracking exists for selective erasing.
        if p.selective {
            self.last_touch.insert(wi, prog_end);
        }

        // Posted write: the requester resumes at execute-accept.
        Access {
            start: earliest,
            end: exec_accepted,
        }
    }

    /// Selective erasing: if global word `wi` was announced as an
    /// overwrite target, holds stale data, and both the word and its
    /// partition had an idle window long enough for a background RESET
    /// before `t0`, the pre-erase already happened — the coming program
    /// is SET-only.
    fn pre_erase(&mut self, p: &Pass, wi: u64, ch: usize, md: usize, row: RowId, t0: Picos) {
        let module = self.channels[ch].module(md);
        if !self.announced.contains(&wi) || module.is_pristine(row) {
            return;
        }
        let lane_free = module.partition_free_at(row.partition);
        let touch = self.last_touch.get(&wi).copied().unwrap_or(Picos::ZERO);
        let window_start = lane_free.max(touch);
        if window_start + p.treset <= t0 {
            let pe = self.channels[ch]
                .module_mut(md)
                .pre_erase(window_start, row);
            debug_assert!(pe.end <= t0 + p.treset);
            self.stats.preerase_hits += 1;
            self.probe.span(
                Track::new("partition", row.partition.0 as u32),
                "pre_erase",
                pe.start,
                pe.end,
            );
        } else {
            self.stats.preerase_misses += 1;
        }
    }

    /// Fault injection for one word program: SET/RESET program failures
    /// and stuck-at wear. Writes are posted, so a failing program costs
    /// *background* time (the program buffer stays busy through the
    /// re-pulses), not requester latency — until buffer pressure
    /// surfaces it. Returns when the program buffer frees.
    fn program_faults(
        &mut self,
        ch_idx: usize,
        md: usize,
        line: u64,
        phys_slot: u64,
        row: RowId,
        prog: PhaseTiming,
    ) -> Picos {
        let fs = self.faults.as_mut().expect("called with a fault plan");
        let mut prog_end = prog.end;
        let st = fs.lines[ch_idx][md].entry(line).or_default();
        st.writes += 1;
        st.reads_since_write = 0;
        let write_idx = st.writes;
        let slot_w = fs.slot_writes[ch_idx][md].entry(phys_slot).or_insert(0);
        *slot_w += 1;
        let threshold = fs.plan.pram.stuck_at_threshold;
        let stuck = threshold > 0 && *slot_w >= threshold;
        let p_fail = fs.plan.pram.program_failure_rate.min(1.0);
        let seed = fs.plan.seed;
        let retry = fs.retry;
        let budget = fs.plan.resilience.line_error_budget;
        let service = prog.end - prog.start;
        let (chn, mdn) = (ch_idx as u64, md as u64);
        let fails = |attempt: u64| -> bool {
            if stuck {
                return true; // worn-out cells reject every pulse
            }
            let labels = [domain::PROGRAM, chn, mdn, line, write_idx, attempt];
            p_fail > 0.0 && stream_unit(seed, &labels) < p_fail
        };
        if !fails(0) {
            return prog_end;
        }
        fs.counters.injected += 1;
        let mut recovered = false;
        for attempt in 0..retry.max_retries {
            fs.counters.retries += 1;
            prog_end = prog_end + retry.backoff_for(attempt) + service;
            self.ctrl_energy.charge(E_CTRL_OP);
            if !fails(u64::from(attempt) + 1) {
                recovered = true;
                break;
            }
            fs.counters.injected += 1;
        }
        if !recovered {
            let st = fs.lines[ch_idx][md].entry(line).or_default();
            st.errors += 1;
            if st.errors >= budget {
                st.errors = 0;
                if let Some(spare) = fs.retire[ch_idx][md].retire(line) {
                    fs.counters.retired_lines += 1;
                    // Copy the just-programmed line onto its spare so
                    // later reads round-trip.
                    prog_end = self.relocate_to_spare(ch_idx, md, spare, row, prog_end);
                }
            }
            // The final margin-boosted pulse always lands.
            prog_end += service;
        }
        prog_end
    }
}

/// What every word of one request shares, resolved once per request:
/// the scheduler's flags, the timing constants, which optional
/// machinery is attached, and the module geometry. Restoring an image
/// holds every module's timing and geometry to the configuration's, so
/// one module's stand for all.
#[derive(Debug, Clone, Copy)]
struct Pass {
    /// When the request was issued.
    at: Picos,
    /// The scheduler overlaps words across partitions and row buffers.
    interleaves: bool,
    /// The scheduler pre-erases announced overwrite targets.
    selective: bool,
    /// A fault plan is attached.
    faulted: bool,
    /// A fault plan or wear leveling can move a line off its logical
    /// slot.
    remaps: bool,
    /// The probe keeps trace events, so each word offers its own; any
    /// other probe gets one tally per request.
    stores: bool,
    /// PHY clock-domain crossing.
    sync: Picos,
    /// One interface clock.
    tck: Picos,
    /// A background RESET plus write recovery.
    treset: Picos,
    /// Every module's geometry.
    geometry: PramGeometry,
}

/// Image tag for [`PramController`] snapshots.
const CTRL_KIND: &str = "pram-ctrl/controller";
/// Schema version of [`CTRL_KIND`] images.
const CTRL_VERSION: u32 = 1;

impl PramController {
    /// Checks a decoded image against this controller, which its
    /// configuration built: as many channels and modules, every module
    /// shaped as built ([`PramChannel::check_shape`]), per-channel and
    /// per-module state (`channel_serial`, `program_buffer_free`,
    /// `wear`, the fault maps) of that shape, and counters in range
    /// ([`Self::check_counters`]). The request path reads its
    /// per-request constants from the configuration and indexes this
    /// state without checking, so a forged image must stop here.
    ///
    /// # Errors
    ///
    /// Names the first field that disagrees, from the controller down
    /// (`channels[0].modules[3].program_windows ...`).
    fn check_shape(&self, image: &PramController) -> Result<(), String> {
        let (channels, modules) = (self.channels.len(), self.cfg.map.modules_per_channel);
        if image.channels.len() != channels {
            return Err(format!(
                "channels holds {} channels, the configuration has {channels}",
                image.channels.len()
            ));
        }
        for (c, (ch, built)) in image.channels.iter().zip(&self.channels).enumerate() {
            ch.check_shape(built)
                .map_err(|e| format!("channels[{c}].{e}"))?;
        }
        if image.channel_serial.len() != channels {
            return Err(format!(
                "channel_serial holds {} clocks, the configuration has {channels} channels",
                image.channel_serial.len()
            ));
        }
        per_module(
            "program_buffer_free",
            &image.program_buffer_free,
            channels,
            modules,
        )?;
        let words = self.channels[0].module(0).geometry().module_bytes() / WORD_BYTES as u64;
        match (&image.wear, self.cfg.wear_leveling) {
            (None, None) => {}
            (Some(wear), Some(interval)) => {
                per_module("wear", wear, channels, modules)?;
                for (c, ch) in wear.iter().enumerate() {
                    for (md, sg) in ch.iter().enumerate() {
                        sg.check(words - 1, interval)
                            .map_err(|e| format!("wear[{c}][{md}].{e}"))?;
                    }
                }
            }
            (Some(_), None) => {
                return Err("wear holds levelers, the configuration has no wear leveling".into())
            }
            (None, Some(_)) => return Err("wear is null, the configuration levels wear".into()),
        }
        if let Some(fs) = &image.faults {
            per_module("faults.retire", &fs.retire, channels, modules)?;
            per_module("faults.lines", &fs.lines, channels, modules)?;
            per_module("faults.slot_writes", &fs.slot_writes, channels, modules)?;
            let usable = if image.wear.is_some() {
                words - 1
            } else {
                words
            };
            for (c, ch) in fs.retire.iter().enumerate() {
                for (md, map) in ch.iter().enumerate() {
                    map.check(usable)
                        .map_err(|e| format!("faults.retire[{c}][{md}].{e}"))?;
                }
            }
        }
        image.check_counters()
    }

    /// Checks a decoded image's counters, which the request path adds to
    /// without checking: each at most [`COUNTER_CEILING`], and each
    /// line's error count below the plan's `line_error_budget`, where the
    /// line retires and the count restarts (0 under a budget of 0).
    ///
    /// # Errors
    ///
    /// Names the first counter out of range (`faults.lines[0][3] line 17
    /// reads is ...`).
    fn check_counters(&self) -> Result<(), String> {
        let s = &self.stats;
        for (field, value) in [
            ("reads", s.reads),
            ("writes", s.writes),
            ("words_read", s.words_read),
            ("words_written", s.words_written),
            ("pre_active_skips", s.pre_active_skips),
            ("activate_skips", s.activate_skips),
            ("preerase_hits", s.preerase_hits),
            ("preerase_misses", s.preerase_misses),
            ("gap_moves", s.gap_moves),
            ("overlap_wins", s.overlap_wins),
            ("overlap_losses", s.overlap_losses),
        ] {
            check_counter(format_args!("stats.{field}"), value)?;
        }
        self.ctrl_energy
            .check()
            .map_err(|e| format!("ctrl_energy.{e}"))?;
        let Some(fs) = &self.faults else {
            return Ok(());
        };
        fs.counters
            .check()
            .map_err(|e| format!("faults.counters.{e}"))?;
        let budget = fs.plan.resilience.line_error_budget;
        for (c, (lines, slots)) in fs.lines.iter().zip(&fs.slot_writes).enumerate() {
            for (md, (lines, slots)) in lines.iter().zip(slots).enumerate() {
                // The lowest line out of range, so the error names the
                // same one whatever order the map iterates in.
                let bad = lines
                    .iter()
                    .filter_map(|(&line, st)| st.check(budget).err().map(|e| (line, e)))
                    .min();
                if let Some((line, e)) = bad {
                    return Err(format!("faults.lines[{c}][{md}] line {line} {e}"));
                }
                if let Some((slot, n)) = slots
                    .iter()
                    .map(|(&slot, &n)| (slot, n))
                    .filter(|&(_, n)| n > COUNTER_CEILING)
                    .min()
                {
                    return check_counter(
                        format_args!("faults.slot_writes[{c}][{md}] slot {slot}"),
                        n,
                    );
                }
            }
        }
        Ok(())
    }
}

/// Checks that per-channel, per-module state `field` holds `channels`
/// rows of `modules` entries each.
fn per_module<T>(
    field: &str,
    rows: &[Vec<T>],
    channels: usize,
    modules: usize,
) -> Result<(), String> {
    if rows.len() != channels {
        return Err(format!(
            "{field} holds {} channels, the configuration has {channels}",
            rows.len()
        ));
    }
    match rows.iter().position(|row| row.len() != modules) {
        Some(c) => Err(format!(
            "{field}[{c}] holds {} modules, the configuration has {modules}",
            rows[c].len()
        )),
        None => Ok(()),
    }
}

impl MemoryBackend for PramController {
    fn read(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        // Timing-only: identical device walk to `read_bytes` (same burst,
        // RNG draws, stats and energy), minus the data materialization —
        // this is the accurate engine's hot path.
        self.read_pass(at, addr, len, None)
    }

    fn write(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        assert!(len > 0, "empty write");
        self.write_pass(at, addr, len, None)
    }

    fn announce_overwrites(&mut self, _at: Picos, addrs: &[u64]) {
        if !self.cfg.scheduler.selective_erase() {
            return;
        }
        for &a in addrs {
            self.announced.insert(self.cfg.map.word_index(a));
        }
    }

    fn energy(&self) -> EnergyBook {
        let mut book = EnergyBook::new();
        if self.ctrl_energy.events > 0 {
            book.charge_many(
                "ctrl.fpga",
                self.ctrl_energy.energy,
                self.ctrl_energy.events,
            );
        }
        for ch in &self.channels {
            for m in ch.modules() {
                book.merge(&m.energy());
            }
        }
        book
    }

    fn label(&self) -> &'static str {
        match self.cfg.scheduler {
            SchedulerKind::BareMetal => "pram-ctrl/bare-metal",
            SchedulerKind::Interleaving => "pram-ctrl/interleaving",
            SchedulerKind::SelectiveErasing => "pram-ctrl/selective-erasing",
            SchedulerKind::Final => "pram-ctrl/final",
        }
    }

    fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    fn probe(&self) -> &Probe {
        &self.probe
    }

    fn collect_metrics(&self, out: &mut MetricSet) {
        let s = &self.stats;
        out.add("pram.reads", s.reads);
        out.add("pram.writes", s.writes);
        out.add("pram.words_read", s.words_read);
        out.add("pram.words_written", s.words_written);
        out.add("pram.rab_hits", s.pre_active_skips);
        out.add("pram.rdb_hits", s.activate_skips);
        // Address phases actually driven over the wire — what the
        // three-phase protocol's phase skipping saves.
        out.add(
            "pram.address_phases",
            (s.words_read - s.pre_active_skips) + (s.words_read - s.activate_skips),
        );
        out.add("pram.preerase_hits", s.preerase_hits);
        out.add("pram.preerase_misses", s.preerase_misses);
        out.add("pram.overlap_wins", s.overlap_wins);
        out.add("pram.overlap_losses", s.overlap_losses);
        out.add("pram.gap_moves", s.gap_moves);
        if let Some(fs) = &self.faults {
            let f = &fs.counters;
            out.add("fault.injected", f.injected);
            out.add("pram.ecc_corrected", f.ecc_corrected);
            out.add("pram.ecc_uncorrectable", f.ecc_uncorrectable);
            out.add("pram.retries", f.retries);
            out.add("pram.retired_lines", f.retired_lines);
            out.add("pram.retry_stall_ns", f.retry_stall_ps / 1000);
        }
    }

    fn collect_faults(&self, out: &mut FaultCounters) {
        if let Some(fs) = &self.faults {
            out.merge(&fs.counters);
        }
    }

    fn snapshot_state(&self) -> Result<StateImage, SnapshotError> {
        use util::json::ToJson;
        let faults = match &self.faults {
            Some(fs) => FaultState::to_json(fs),
            None => util::json::Json::Null,
        };
        let data = util::json::Json::Obj(vec![
            ("cfg".to_string(), self.cfg.to_json()),
            ("channels".to_string(), self.channels.to_json()),
            ("channel_serial".to_string(), self.channel_serial.to_json()),
            (
                "program_buffer_free".to_string(),
                self.program_buffer_free.to_json(),
            ),
            ("announced".to_string(), self.announced.to_json()),
            ("last_touch".to_string(), self.last_touch.to_json()),
            ("wear".to_string(), self.wear.to_json()),
            ("faults".to_string(), faults),
            ("stats".to_string(), self.stats.to_json()),
            ("ctrl_energy".to_string(), self.ctrl_energy.to_json()),
        ]);
        Ok(StateImage::new(CTRL_KIND, CTRL_VERSION, data))
    }

    fn restore_state(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        let data = image.expect(CTRL_KIND, CTRL_VERSION)?;
        let m = |e| SnapshotError::malformed(CTRL_KIND, e);
        let mut f = util::json::Fields::new(data);
        let cfg: SubsystemConfig = f.get("cfg").map_err(m)?;
        check_config("cfg", &cfg, &self.cfg).map_err(|e| SnapshotError::shape(CTRL_KIND, e))?;
        let image = PramController {
            cfg,
            channels: f.get("channels").map_err(m)?,
            channel_serial: f.get("channel_serial").map_err(m)?,
            program_buffer_free: f.get("program_buffer_free").map_err(m)?,
            announced: f.get("announced").map_err(m)?,
            last_touch: f.get("last_touch").map_err(m)?,
            wear: f.get("wear").map_err(m)?,
            faults: f
                .get::<Option<FaultState>>("faults")
                .map_err(m)?
                .map(Box::new),
            stats: f.get("stats").map_err(m)?,
            ctrl_energy: f.get("ctrl_energy").map_err(m)?,
            // `probe` is a runtime attachment, deliberately left
            // untouched.
            probe: self.probe.clone(),
        };
        f.finish().map_err(m)?;
        self.check_shape(&image)
            .map_err(|detail| SnapshotError::shape(CTRL_KIND, detail))?;
        *self = image;
        Ok(())
    }
}

/// The per-fragment walk the one-pass request path replaced, kept as
/// the equivalence tests' oracle.
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(s: SchedulerKind) -> PramController {
        PramController::new(SubsystemConfig::paper(s, 7))
    }

    #[test]
    fn functional_round_trip() {
        let mut c = ctrl(SchedulerKind::Final);
        let data: Vec<u8> = (0..1024).map(|i| (i % 251 + 1) as u8).collect();
        let w = c.write_bytes(Picos::ZERO, 4096, &data);
        let (_, back) = c.read_bytes(w.end + Picos::from_us(100), 4096, 1024);
        assert_eq!(back, data);
    }

    #[test]
    fn unaligned_round_trip() {
        let mut c = ctrl(SchedulerKind::Final);
        let data: Vec<u8> = (1..=100).collect();
        let w = c.write_bytes(Picos::ZERO, 12345, &data);
        let (_, back) = c.read_bytes(w.end + Picos::from_us(100), 12345, 100);
        assert_eq!(back, data);
    }

    #[test]
    fn read_is_fast_write_is_posted() {
        let mut c = ctrl(SchedulerKind::Final);
        let w = c.write(Picos::ZERO, 0, 32);
        // Posted write: accepted in well under a microsecond.
        assert!(w.end < Picos::from_us(1), "{}", w.end);
        let r = c.read(Picos::from_ms(1), 0, 32);
        // Three-phase read of one word lands near 150 ns.
        assert!(
            r.latency_from(Picos::from_ms(1)) < Picos::from_ns(400),
            "{:?}",
            r
        );
    }

    #[test]
    fn run_stream_matches_per_op_reference_on_the_real_controller() {
        // Property: the batched backend entry is purely a dispatch
        // optimization — for any request stream, its clock, write-queue
        // state, internal stats and energy ledger are identical to the
        // per-op reference walk, op for op.
        use sim_core::mem::StreamOp;
        util::for_each_case!(16, |rng| {
            let ops: Vec<StreamOp> = (0..rng.range_u64(1, 48))
                .map(|_| StreamOp {
                    advance: Picos::from_ns(rng.range_u64(0, 40)),
                    addr: rng.range_u64(0, 2048) * 64,
                    write: rng.chance(0.4),
                })
                .collect();
            let line = 64u32;
            let xbar = Picos::from_ns(30);
            let kind = if rng.chance(0.5) {
                SchedulerKind::Final
            } else {
                SchedulerKind::Interleaving
            };

            // Reference: the pinned per-op semantics (blocking fills,
            // posted writes through the first earliest-free slot).
            let mut reference = ctrl(kind);
            let mut ref_wq = [Picos::ZERO; 4];
            let mut ref_now = Picos::ZERO;
            // Batched path, driven one op at a time so every
            // intermediate clock is compared, then re-run as one slice.
            let mut stepped = ctrl(kind);
            let mut stepped_wq = [Picos::ZERO; 4];
            let mut stepped_now = Picos::ZERO;
            for (i, op) in ops.iter().enumerate() {
                ref_now += op.advance;
                if op.write {
                    let slot = (0..ref_wq.len()).min_by_key(|&i| ref_wq[i]).unwrap();
                    let free_at = ref_wq[slot];
                    ref_wq[slot] = reference.write(ref_now.max(free_at), op.addr, line).end;
                    ref_now = ref_now.max(free_at);
                } else {
                    ref_now = reference.read(ref_now, op.addr, line).end + xbar;
                }
                stepped_now = stepped.run_stream(
                    stepped_now,
                    line,
                    xbar,
                    std::slice::from_ref(op),
                    &mut stepped_wq,
                );
                assert_eq!(stepped_now, ref_now, "clock diverged at op {i}");
                assert_eq!(stepped_wq, ref_wq, "write queue diverged at op {i}");
            }
            assert_eq!(stepped.energy(), reference.energy());

            let mut batched = ctrl(kind);
            let mut wq = [Picos::ZERO; 4];
            let now = batched.run_stream(Picos::ZERO, line, xbar, &ops, &mut wq);
            assert_eq!(now, ref_now);
            assert_eq!(wq, ref_wq);
            assert_eq!(batched.energy(), reference.energy());
        });
    }

    #[test]
    fn interleaving_beats_bare_metal_on_streaming_reads() {
        let mut results = Vec::new();
        for s in [SchedulerKind::BareMetal, SchedulerKind::Interleaving] {
            let mut c = ctrl(s);
            let mut t = Picos::ZERO;
            // Stream 64 KiB in 512 B requests.
            for i in 0..128u64 {
                let a = c.read(t, i * 512, 512);
                t = a.end;
            }
            results.push(t);
        }
        let (bare, inter) = (results[0], results[1]);
        assert!(
            inter.as_ps() * 2 < bare.as_ps(),
            "interleaving {inter} should be >2x faster than bare-metal {bare}"
        );
    }

    #[test]
    fn overlap_counters_split_by_scheduler() {
        // The same streaming read pattern: the interleaving scheduler
        // overlaps address phases with in-flight bursts (wins), the
        // bare-metal one stalls words behind the channel (losses).
        let mut wins = Vec::new();
        let mut losses = Vec::new();
        for s in [SchedulerKind::BareMetal, SchedulerKind::Interleaving] {
            let mut c = ctrl(s);
            let mut t = Picos::ZERO;
            for i in 0..64u64 {
                let a = c.read(t, i * 512, 512);
                t = a.end;
            }
            wins.push(c.stats().overlap_wins);
            losses.push(c.stats().overlap_losses);
        }
        assert_eq!(wins[0], 0, "bare-metal never overlaps");
        assert!(losses[0] > 0, "bare-metal should stall words");
        assert!(wins[1] > 0, "interleaving should overlap tRCD with bursts");
        assert_eq!(
            losses[1], 0,
            "interleaving never stalls on the serial point"
        );
    }

    #[test]
    fn controller_metrics_surface_scheduler_counters() {
        let mut c = ctrl(SchedulerKind::Final);
        let mut t = Picos::ZERO;
        for i in 0..32u64 {
            t = c.read(t, i * 512, 512).end;
        }
        let mut m = util::telemetry::MetricSet::new();
        sim_core::mem::MemoryBackend::collect_metrics(&c, &mut m);
        assert_eq!(m.counter("pram.words_read"), Some(32 * 16));
        assert!(m.counter("pram.rab_hits").unwrap() > 0);
        assert!(m.counter("pram.overlap_wins").unwrap() > 0);
        assert_eq!(m.counter("pram.overlap_losses"), Some(0));
    }

    #[test]
    fn probe_records_partition_and_rdb_spans() {
        let hub = sim_core::Telemetry::new(4096);
        let mut c = ctrl(SchedulerKind::Final);
        c.set_probe(hub.probe());
        let w = c.write(Picos::ZERO, 0, 64);
        c.read(w.end + Picos::from_us(100), 0, 512);
        let (events, metrics) = hub.finish();
        assert!(events.iter().any(|e| e.track.group == "partition"));
        assert!(events
            .iter()
            .any(|e| e.track.group == "rdb" && e.name == "read"));
        assert!(events
            .iter()
            .any(|e| e.track.group == "rdb" && e.name == "program"));
        assert_eq!(metrics.histogram("pram.read").unwrap().count(), 1);
        assert_eq!(metrics.histogram("pram.write").unwrap().count(), 1);
    }

    #[test]
    fn phase_skips_fire_on_streaming() {
        let mut c = ctrl(SchedulerKind::Final);
        let mut t = Picos::ZERO;
        for i in 0..64u64 {
            let a = c.read(t, i * 512, 512);
            t = a.end;
        }
        let s = c.stats();
        assert!(s.pre_active_skips > 0, "RAB hits expected on a stream");
        assert_eq!(s.words_read, 64 * 16);
    }

    #[test]
    fn program_buffer_serializes_writes_to_one_module() {
        let mut c = ctrl(SchedulerKind::Final);
        // Two writes to the same module word region (same module = same
        // 32 B lane in the stripe): addr 0 and addr 1024 hit module 0.
        let w1 = c.write(Picos::ZERO, 0, 32);
        let w2 = c.write(w1.end, 1024, 32);
        // The second write waits for the first program (~10 us SET-only).
        assert!(w2.end > Picos::from_us(9), "{}", w2.end);
    }

    #[test]
    fn writes_to_different_modules_do_not_serialize() {
        let mut c = ctrl(SchedulerKind::Final);
        let w1 = c.write(Picos::ZERO, 0, 32); // module 0
        let w2 = c.write(w1.end, 32, 32); // module 1
        assert!(w2.end < Picos::from_us(2), "{}", w2.end);
    }

    #[test]
    fn selective_erase_turns_overwrites_set_only() {
        // Write a region, announce it, wait, overwrite: with Final the
        // overwrite should be SET-only (pre-erase hit); with Interleaving
        // it pays the full RESET+SET.
        let region = 0u64;
        let mut lat = Vec::new();
        for s in [SchedulerKind::Interleaving, SchedulerKind::Final] {
            let mut c = ctrl(s);
            c.write(Picos::ZERO, region, 32);
            c.announce_overwrites(Picos::ZERO, &[region]);
            // Long idle window, then back-to-back overwrites to the module.
            let t0 = Picos::from_ms(1);
            let w1 = c.write(t0, region, 32);
            let w2 = c.write(w1.end, 1024, 32); // same module, gated by pb
            lat.push(w2.end - t0);
        }
        // Final's first program was SET-only (10 us), Interleaving's was
        // an overwrite (18 us); the second write exposes the difference.
        assert!(
            lat[1] + Picos::from_us(6) < lat[0],
            "selective erase should cut ~8 us: interleaving={} final={}",
            lat[0],
            lat[1]
        );
    }

    #[test]
    fn preerase_requires_announcement() {
        let mut c = ctrl(SchedulerKind::Final);
        c.write(Picos::ZERO, 0, 32);
        // No announcement: overwrite pays full cost, no pre-erase hit.
        c.write(Picos::from_ms(1), 0, 32);
        assert_eq!(c.stats().preerase_hits, 0);
    }

    #[test]
    fn preerase_requires_idle_window() {
        let mut c = ctrl(SchedulerKind::Final);
        c.write(Picos::ZERO, 0, 32);
        c.announce_overwrites(Picos::ZERO, &[0]);
        // Overwrite immediately: no idle window for the background RESET.
        let w1 = c.write(Picos::ZERO, 0, 32);
        let _ = w1;
        assert_eq!(c.stats().preerase_hits, 0);
        assert!(c.stats().preerase_misses > 0);
    }

    #[test]
    fn energy_includes_device_and_controller() {
        let mut c = ctrl(SchedulerKind::Final);
        c.write(Picos::ZERO, 0, 512);
        c.read(Picos::from_ms(1), 0, 512);
        let e = c.energy();
        assert!(e.energy_of("ctrl.fpga") > Joules::ZERO);
        assert!(e.energy_of("pram.program") > Joules::ZERO);
        assert!(e.energy_of("pram.sense") > Joules::ZERO);
    }

    #[test]
    fn stats_count_requests_and_words() {
        let mut c = ctrl(SchedulerKind::Final);
        c.write(Picos::ZERO, 0, 512);
        c.read(Picos::from_ms(1), 0, 1024);
        let s = c.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.words_written, 16);
        assert_eq!(s.words_read, 32);
    }

    #[test]
    fn capacity_is_32_gib() {
        let c = ctrl(SchedulerKind::Final);
        assert_eq!(c.capacity_bytes(), 32u64 << 30);
    }

    #[test]
    fn small_config_round_trip() {
        let mut c = PramController::new(SubsystemConfig::small(SchedulerKind::Final, 3));
        let data = vec![0x42u8; 256];
        let w = c.write_bytes(Picos::ZERO, 64, &data);
        let (_, back) = c.read_bytes(w.end + Picos::from_us(50), 64, 256);
        assert_eq!(back, data);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn wear_leveling_preserves_functional_contents() {
        let cfg = SubsystemConfig {
            wear_leveling: Some(4),
            ..SubsystemConfig::small(SchedulerKind::Final, 11)
        };
        let mut c = PramController::new(cfg);
        // Enough writes to force many gap moves; reads must always see
        // the latest data through the rotating remap.
        let mut t = Picos::ZERO;
        for round in 0..8u8 {
            for w in 0..24u64 {
                let data = vec![round.wrapping_add(w as u8).max(1); 32];
                t = c.write_bytes(t, w * 32, &data).end + Picos::from_us(20);
            }
        }
        assert!(c.stats().gap_moves > 0, "gap should have moved");
        for w in 0..24u64 {
            let (_, back) = c.read_bytes(t, w * 32, 32);
            assert_eq!(back, vec![7u8.wrapping_add(w as u8).max(1); 32], "word {w}");
        }
    }

    #[test]
    fn wear_leveling_costs_throughput() {
        let mut base = PramController::new(SubsystemConfig::small(SchedulerKind::Final, 3));
        let cfg = SubsystemConfig {
            wear_leveling: Some(2), // aggressive interval for the test
            ..SubsystemConfig::small(SchedulerKind::Final, 3)
        };
        let mut wl = PramController::new(cfg);
        let mut tb = Picos::ZERO;
        let mut tw = Picos::ZERO;
        for i in 0..128u64 {
            tb = base.write(tb, (i % 8) * 32, 32).end;
            tw = wl.write(tw, (i % 8) * 32, 32).end;
        }
        // Ensure the background copies eventually drain: compare final
        // partition busy via subsequent read completion.
        let rb = base.read(tb + Picos::from_ms(1), 0, 32).end;
        let rw = wl.read(tw + Picos::from_ms(1), 0, 32).end;
        assert!(wl.stats().gap_moves >= 32);
        // Relocation traffic shows up as longer aggregate occupancy.
        assert!(rw >= rb - Picos::from_ms(1), "sanity");
    }

    #[test]
    fn write_pausing_improves_read_latency_under_write_pressure() {
        let run = |pausing: bool| {
            let cfg = SubsystemConfig {
                write_pausing: pausing,
                ..SubsystemConfig::paper(SchedulerKind::Interleaving, 5)
            };
            let mut c = PramController::new(cfg);
            // Kick off programs on every module, then read behind them.
            for i in 0..32u64 {
                c.write(Picos::ZERO, i * 32, 32);
            }
            let t0 = Picos::from_us(2);
            let mut sum = Picos::ZERO;
            for i in 0..32u64 {
                let a = c.read(t0, i * 32, 32);
                sum += a.latency_from(t0);
            }
            sum / 32
        };
        let queued = run(false);
        let paused = run(true);
        assert!(
            paused < queued / 2,
            "pausing should cut read latency under write pressure: {paused} vs {queued}"
        );
    }

    #[test]
    fn inert_fault_plan_changes_no_timing() {
        let drive = |c: &mut PramController| {
            let mut t = Picos::ZERO;
            for i in 0..32u64 {
                t = c.write(t, i * 64, 64).end;
            }
            for i in 0..32u64 {
                t = c.read(t + Picos::from_us(20), i * 64, 64).end;
            }
            t
        };
        let cfg = SubsystemConfig::small(SchedulerKind::Final, 9);
        let mut plain = PramController::new(cfg);
        let mut inert =
            PramController::new(cfg).with_faults(&sim_core::fault::FaultPlan::default());
        assert_eq!(drive(&mut plain), drive(&mut inert));
        let f = inert.fault_counters().unwrap();
        assert!(f.is_zero(), "inert plan must inject nothing: {f:?}");
    }

    #[test]
    fn seeded_faults_round_trip_and_count() {
        let plan = sim_core::fault::FaultPlan {
            pram: sim_core::fault::PramFaults {
                drift_rate: 0.05,
                read_disturb_rate: 0.02,
                program_failure_rate: 0.02,
                rdb_corruption_rate: 0.01,
                ..Default::default()
            },
            ..sim_core::fault::FaultPlan::seeded(3)
        };
        let mut c =
            PramController::new(SubsystemConfig::small(SchedulerKind::Final, 3)).with_faults(&plan);
        let data: Vec<u8> = (0..2048).map(|i| (i % 249 + 1) as u8).collect();
        let mut t = Picos::ZERO;
        t = c.write_bytes(t, 0, &data).end + Picos::from_us(100);
        // Re-read several times so disturb ramps and drift gets trials.
        for _ in 0..8 {
            let (a, back) = c.read_bytes(t, 0, 2048);
            assert_eq!(back, data, "injected faults must never corrupt data");
            t = a.end + Picos::from_us(10);
        }
        let f = *c.fault_counters().unwrap();
        assert!(f.injected > 0, "rates this high must inject: {f:?}");
        assert!(f.ecc_corrected > 0, "single flips should be corrected");
        let mut m = util::telemetry::MetricSet::new();
        sim_core::mem::MemoryBackend::collect_metrics(&c, &mut m);
        assert_eq!(m.counter("fault.injected"), Some(f.injected));
        assert_eq!(m.counter("pram.retries"), Some(f.retries));
        let mut ledger = sim_core::fault::FaultCounters::default();
        sim_core::mem::MemoryBackend::collect_faults(&c, &mut ledger);
        assert_eq!(ledger, f);
    }

    #[test]
    fn stuck_lines_retire_and_still_round_trip() {
        // Threshold 6 over 8 writes: the hot line wears out and retires
        // mid-hammer while its spare stays comfortably below threshold.
        let plan = sim_core::fault::FaultPlan {
            pram: sim_core::fault::PramFaults {
                stuck_at_threshold: 6,
                ..Default::default()
            },
            resilience: sim_core::fault::ResiliencePolicy {
                line_error_budget: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut c =
            PramController::new(SubsystemConfig::small(SchedulerKind::Final, 5)).with_faults(&plan);
        // Hammer one word past the wear threshold, then read it back.
        let mut t = Picos::ZERO;
        for round in 0..8u8 {
            t = c.write_bytes(t, 0, &[round + 1; 32]).end + Picos::from_us(30);
        }
        let (_, back) = c.read_bytes(t, 0, 32);
        assert_eq!(back, vec![8u8; 32], "retired line must serve latest data");
        let f = c.fault_counters().unwrap();
        assert!(f.retired_lines > 0, "worn line should have retired: {f:?}");
        assert!(f.retries > 0);
        // After retirement the spare is healthy: a fresh write+read pays
        // no further retries.
        let before = f.retries;
        let w = c.write_bytes(t + Picos::from_ms(1), 0, &[0x5A; 32]).end;
        let (_, back) = c.read_bytes(w + Picos::from_us(30), 0, 32);
        assert_eq!(back, vec![0x5A; 32]);
        assert_eq!(c.fault_counters().unwrap().retries, before);
    }

    #[test]
    fn retirement_composes_with_wear_leveling() {
        let plan = sim_core::fault::FaultPlan {
            pram: sim_core::fault::PramFaults {
                stuck_at_threshold: 6,
                ..Default::default()
            },
            resilience: sim_core::fault::ResiliencePolicy {
                line_error_budget: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let cfg = SubsystemConfig {
            wear_leveling: Some(4),
            ..SubsystemConfig::small(SchedulerKind::Final, 13)
        };
        let mut c = PramController::new(cfg).with_faults(&plan);
        let mut t = Picos::ZERO;
        for round in 0..10u8 {
            for w in 0..8u64 {
                let data = vec![round.wrapping_add(w as u8).max(1); 32];
                t = c.write_bytes(t, w * 32, &data).end + Picos::from_us(25);
            }
        }
        for w in 0..8u64 {
            let (_, back) = c.read_bytes(t, w * 32, 32);
            assert_eq!(back, vec![9u8.wrapping_add(w as u8).max(1); 32], "word {w}");
        }
        assert!(c.stats().gap_moves > 0, "leveling should be active");
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically_with_faults() {
        use pram::cell::WORD_PROGRAMS_CEILING;
        use sim_core::snapshot::ENERGY_CEILING;
        use util::json::{FromJson, ToJson};
        let plan = sim_core::fault::FaultPlan {
            pram: sim_core::fault::PramFaults {
                drift_rate: 0.05,
                read_disturb_rate: 0.02,
                program_failure_rate: 0.02,
                rdb_corruption_rate: 0.01,
                stuck_at_threshold: 6,
                ..Default::default()
            },
            resilience: sim_core::fault::ResiliencePolicy {
                line_error_budget: 1,
                ..Default::default()
            },
            ..sim_core::fault::FaultPlan::seeded(3)
        };
        let cfg = SubsystemConfig {
            wear_leveling: Some(4),
            ..SubsystemConfig::small(SchedulerKind::Final, 13)
        };
        let mk = || PramController::new(cfg).with_faults(&plan);
        let drive = |c: &mut PramController, mut t: Picos, rounds: std::ops::Range<u8>| {
            for _round in rounds {
                for w in 0..8u64 {
                    t = c.write(t, w * 64, 64).end + Picos::from_us(25);
                    t = c.read(t, w * 64, 64).end + Picos::from_us(5);
                }
            }
            t
        };

        let mut straight = mk();
        let t_end = drive(&mut straight, Picos::ZERO, 0..8);

        let mut recorded = mk();
        let t_mid = drive(&mut recorded, Picos::ZERO, 0..4);
        let img = recorded.snapshot_state().unwrap();
        // Round-trip the image through JSON text, as record/replay does.
        let img = StateImage::from_json_str(&img.to_json_string()).unwrap();

        let mut resumed = mk();
        resumed.restore_state(&img).unwrap();
        let t_res = drive(&mut resumed, t_mid, 4..8);

        assert_eq!(t_res, t_end, "resumed clock must match the straight run");
        assert_eq!(resumed.stats(), straight.stats());
        assert_eq!(resumed.energy(), straight.energy());
        assert_eq!(
            resumed.fault_counters().unwrap(),
            straight.fault_counters().unwrap()
        );

        // Restoring onto a differently-configured controller fails loudly.
        let other = SubsystemConfig::small(SchedulerKind::Interleaving, 13);
        let mut wrong = PramController::new(other);
        assert!(matches!(
            wrong.restore_state(&img),
            Err(SnapshotError::ShapeMismatch { .. })
        ));

        // Counters the request path adds to are held to 2^62, and a
        // line's errors below the budget (1 here): past either, restore
        // refuses the image and names the counter.
        use util::json::Json;
        fn at<'j>(mut v: &'j mut Json, path: &[&str]) -> &'j mut Json {
            for key in path {
                v = match v {
                    Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1,
                    Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
                    _ => panic!("{key} indexes a scalar"),
                };
            }
            v
        }
        let ceiling = COUNTER_CEILING.to_json();
        let past = (COUNTER_CEILING + 1).to_json();
        let line = ["faults", "lines", "0", "0", "0", "1"];
        let cells = ["channels", "0", "modules", "0", "cells"];
        let counters: [(&[&str], &str); 17] = [
            (&["stats", "words_read"], "stats.words_read is"),
            (
                &["faults", "counters", "retries"],
                "faults.counters.retries",
            ),
            (&[&line[..], &["reads"]].concat(), "line 0 reads is"),
            (&[&line[..], &["writes"]].concat(), "line 0 writes is"),
            (
                &[&line[..], &["reads_since_write"]].concat(),
                "line 0 reads_since_write is",
            ),
            (
                &["faults", "slot_writes", "0", "0", "0", "1"],
                "faults.slot_writes[0][0] slot",
            ),
            (
                &["channels", "0", "modules", "1", "stats", "read_bursts"],
                "channels[0].modules[1].stats.read_bursts is",
            ),
            (
                &["channels", "0", "modules", "0", "energy", "bus", "events"],
                "channels[0].modules[0].energy.bus.events is",
            ),
            (&["ctrl_energy", "events"], "ctrl_energy.events is"),
            (
                &[&cells[..], &["programs"]].concat(),
                "channels[0].modules[0].cells.programs is",
            ),
            (
                &[&cells[..], &["overwrites"]].concat(),
                "channels[0].modules[0].cells.overwrites is",
            ),
            (
                &[&cells[..], &["selective_erases"]].concat(),
                "channels[0].modules[0].cells.selective_erases is",
            ),
            (
                &[&cells[..], &["erases"]].concat(),
                "channels[0].modules[0].cells.erases is",
            ),
            (
                &["wear", "0", "1", "writes_since_move"],
                "wear[0][1].writes_since_move is",
            ),
            (
                &["wear", "0", "1", "total_moves"],
                "wear[0][1].total_moves is",
            ),
            (
                &["faults", "retire", "0", "1", "retired"],
                "faults.retire[0][1].retired is",
            ),
            (
                &[
                    "channels",
                    "0",
                    "modules",
                    "0",
                    "partitions",
                    "lanes",
                    "3",
                    "reservations",
                ],
                "channels[0].modules[0].partitions.lanes[3].reservations is",
            ),
        ];
        let (last_error, one_error) = (0u32.to_json(), 1u32.to_json());
        // Energy is held to 2^100 fJ, and each word's `u32` program
        // count to 2^31.
        let (energy, energy_past) = (
            ENERGY_CEILING.to_json(),
            Joules(ENERGY_CEILING.0 + 1).to_json(),
        );
        let (word, word_past) = (
            WORD_PROGRAMS_CEILING.to_json(),
            (WORD_PROGRAMS_CEILING + 1).to_json(),
        );
        let rows = counters
            .iter()
            .map(|&(path, needle)| (path.to_vec(), &ceiling, &past, needle))
            .chain([
                (
                    [&line[..], &["errors"]].concat(),
                    &last_error,
                    &one_error,
                    "line 0 errors is 1, at or past the plan's line_error_budget 1",
                ),
                (
                    vec!["channels", "0", "modules", "0", "energy", "rab", "energy"],
                    &energy,
                    &energy_past,
                    "channels[0].modules[0].energy.rab.energy is 1267650600228229401496703205377 fJ",
                ),
                (
                    vec!["ctrl_energy", "energy"],
                    &energy,
                    &energy_past,
                    "ctrl_energy.energy is",
                ),
                (
                    [&cells[..], &["rows", "0", "1", "programs"]].concat(),
                    &word,
                    &word_past,
                    "channels[0].modules[0].cells.rows[",
                ),
            ]);
        for (path, ok, bad, needle) in rows {
            let mut forged = img.clone();
            *at(&mut forged.data, &path) = ok.clone();
            mk().restore_state(&forged)
                .unwrap_or_else(|e| panic!("{path:?} at its bound: {e}"));
            *at(&mut forged.data, &path) = bad.clone();
            let err = mk()
                .restore_state(&forged)
                .expect_err("a forged counter")
                .to_string();
            assert!(err.contains(needle), "{path:?}: {err}");
        }
    }

    #[test]
    fn extensions_compose() {
        let cfg = SubsystemConfig {
            write_pausing: true,
            wear_leveling: Some(16),
            ..SubsystemConfig::small(SchedulerKind::Final, 21)
        };
        let mut c = PramController::new(cfg);
        let data = vec![0x3Cu8; 512];
        let w = c.write_bytes(Picos::ZERO, 1024, &data);
        let (_, back) = c.read_bytes(w.end + Picos::from_ms(1), 1024, 512);
        assert_eq!(back, data);
    }
}
