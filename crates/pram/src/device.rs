//! The PRAM module (one package/chip): functional state + timing.
//!
//! A [`PramModule`] glues together the cell array, the RAB/RDB set, the
//! overlay window and the per-partition occupancy timelines, and executes
//! the three-phase addressing protocol with the Table II timing. It
//! deliberately does *not* model the shared channel buses — those belong
//! to [`crate::channel::PramChannel`], because command and dq bandwidth
//! are contended across the 16 modules of a channel.
//!
//! All timing methods take an *earliest start* instant and return the
//! actual [`PhaseTiming`]; the caller (the FPGA controller model) chains
//! phases and exploits overlap, which is exactly where the paper's
//! multi-resource aware interleaving lives.

use crate::buffers::{BufferId, RowBufferSet};
use crate::cell::{CellArray, ProgramKind, WORD_BYTES};
use crate::geometry::{LowerRow, PartitionId, PramGeometry, RowId, UpperRow};
use crate::overlay::{OverlayStatus, OverlayWindow};
use crate::timing::{BurstLen, PramTiming, StrobeWindows};
use sim_core::energy::{EnergyAccount, EnergyBook, Joules};
use sim_core::snapshot::{check_config, check_counter};
use sim_core::time::Picos;
use sim_core::timeline::{Timeline, TimelineBank};
use sim_core::SimRng;
use util::json::{Fields, FromJson, Json, JsonError, ToJson};

/// Per-event energy constants for the PRAM array, chosen so that the
/// write:read energy asymmetry of phase-change cells is preserved
/// (programs are ~30× costlier than sensing).
pub mod energy {
    use sim_core::energy::Joules;

    /// Latching an upper row address into a RAB.
    pub const PRE_ACTIVE: Joules = Joules::from_pj(100);
    /// Sensing one 32 B row into an RDB.
    pub const ACTIVATE_SENSE: Joules = Joules::from_pj(500);
    /// Moving one byte over the dq bus.
    pub const BURST_PER_BYTE: Joules = Joules::from_pj(10);
    /// SET pulses for one word.
    pub const PROGRAM_SET: Joules = Joules::from_nj(15);
    /// Extra RESET pulses when overwriting.
    pub const PROGRAM_RESET_EXTRA: Joules = Joules::from_nj(10);
    /// A full partition erase.
    pub const ERASE: Joules = Joules::from_nj(1_000_000);
}

/// Typed LPDDR2-NVM protocol violations.
///
/// The hardware controller's command generator upholds these invariants
/// by construction ([`crate::PramChannel`] callers plan phases before
/// issuing them), so on that request path they are unreachable; the
/// fallible `try_*` module methods surface them as values for callers —
/// fault-injection harnesses, fuzzers, alternative controllers — that
/// cannot offer the same guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// Activate issued against a RAB that was never latched.
    EmptyRab(BufferId),
    /// Read burst issued against an RDB holding no sensed row.
    EmptyRdb(BufferId),
    /// Execute register written with no staged program command.
    NothingStaged,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ProtocolError::EmptyRab(ba) => write!(f, "activate on {ba} with empty RAB"),
            ProtocolError::EmptyRdb(ba) => write!(f, "read burst on {ba} with empty RDB"),
            ProtocolError::NothingStaged => {
                write!(f, "execute register written with no staged command")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Start/end instants of one executed protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTiming {
    /// When the phase actually began.
    pub start: Picos,
    /// When its effect (data/state) is available.
    pub end: Picos,
}

util::json_struct!(PhaseTiming { start, end });

impl PhaseTiming {
    /// A zero-length phase at `at` (used for skipped phases).
    pub fn instant(at: Picos) -> Self {
        PhaseTiming { start: at, end: at }
    }

    /// Phase duration.
    pub fn duration(&self) -> Picos {
        self.end - self.start
    }
}

/// The timed phases of one posted word program
/// ([`PramModule::post_program`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostedProgram {
    /// The sequence's four bursts in order, each from its issue to its
    /// end: command code, row address, burst size, program-buffer fill.
    pub bursts: [PhaseTiming; 4],
    /// When the execute register is accepted: a posted write's
    /// requester resumes here.
    pub accepted: Picos,
    /// The array program the execute started.
    pub program: PhaseTiming,
}

/// Raw operation counters of one module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleStats {
    /// Pre-active phases executed.
    pub pre_actives: u64,
    /// Activate phases executed (array sensing operations).
    pub activates: u64,
    /// Read bursts served.
    pub read_bursts: u64,
    /// Write bursts accepted (register writes + program-buffer fills).
    pub write_bursts: u64,
    /// Array programs executed.
    pub programs: u64,
    /// SET-only programs (pristine targets).
    pub set_only_programs: u64,
    /// RESET+SET overwrites.
    pub overwrite_programs: u64,
    /// Word-granular selective erases.
    pub selective_erases: u64,
    /// Partition erases.
    pub partition_erases: u64,
    /// Programs paused to let a read through (write-pausing extension).
    pub write_pauses: u64,
}

util::json_struct!(ModuleStats {
    pre_actives,
    activates,
    read_bursts,
    write_bursts,
    programs,
    set_only_programs,
    overwrite_programs,
    selective_erases,
    partition_erases,
    write_pauses,
});

impl ModuleStats {
    /// Checks a decoded counter set: every counter at most
    /// [`COUNTER_CEILING`](sim_core::snapshot::COUNTER_CEILING).
    ///
    /// # Errors
    ///
    /// Names the first counter past it (`stats.programs is ...`).
    pub fn check(&self) -> Result<(), String> {
        let s = self;
        for (field, value) in [
            ("pre_actives", s.pre_actives),
            ("activates", s.activates),
            ("read_bursts", s.read_bursts),
            ("write_bursts", s.write_bursts),
            ("programs", s.programs),
            ("set_only_programs", s.set_only_programs),
            ("overwrite_programs", s.overwrite_programs),
            ("selective_erases", s.selective_erases),
            ("partition_erases", s.partition_erases),
            ("write_pauses", s.write_pauses),
        ] {
            check_counter(format_args!("stats.{field}"), value)?;
        }
        Ok(())
    }
}

/// Fixed-slot energy accumulator for the module's five components.
///
/// The module charges energy on every protocol phase, and per-charge
/// string-keyed ledger lookups dominated the device's cost on streaming
/// workloads — so the hot path adds to plain fields and [`Self::book`]
/// materializes the ledger on demand (once per report).
#[derive(Debug, Clone, Copy, Default)]
struct ModuleEnergy {
    rab: EnergyAccount,
    sense: EnergyAccount,
    bus: EnergyAccount,
    program: EnergyAccount,
    erase: EnergyAccount,
}

util::json_struct!(ModuleEnergy {
    rab,
    sense,
    bus,
    program,
    erase
});

impl ModuleEnergy {
    fn book(&self) -> EnergyBook {
        let mut book = EnergyBook::new();
        for (label, acct) in [
            ("pram.rab", self.rab),
            ("pram.sense", self.sense),
            ("pram.bus", self.bus),
            ("pram.program", self.program),
            ("pram.erase", self.erase),
        ] {
            if acct.events > 0 {
                book.charge_many(label, acct.energy, acct.events);
            }
        }
        book
    }
}

/// One PRAM package: 1 bank × 16 partitions with 4 row buffers and an
/// overlay window, per Section II.
#[derive(Debug, Clone)]
pub struct PramModule {
    timing: PramTiming,
    geometry: PramGeometry,
    cells: CellArray,
    buffers: RowBufferSet,
    overlay: OverlayWindow,
    /// Array occupancy per partition: sensing, programs and erases
    /// serialize per partition but proceed in parallel across partitions.
    partitions: TimelineBank,
    rng: SimRng,
    energy: ModuleEnergy,
    stats: ModuleStats,
    /// Completion instant of the in-flight overlay program, if any.
    program_done_at: Option<Picos>,
    /// Whether in-flight programs may be paused to let reads through
    /// (the write-pausing extension of §VII, after Qureshi et al. \[66\]).
    write_pausing: bool,
    /// Per-partition window of the most recent in-flight program.
    program_windows: Vec<Option<PhaseTiming>>,
    /// `timing`'s strobe windows, prepared once for the draw every burst
    /// makes. Derived from `timing`, so images leave it out.
    strobes: StrobeWindows,
}

/// Serializes field by field as the derived layout did, with the RDBs
/// carrying the bytes they hold (read back from the cell array).
impl ToJson for PramModule {
    fn to_json(&self) -> Json {
        let cells = &self.cells;
        let fields = [
            ("timing", self.timing.to_json()),
            ("geometry", self.geometry.to_json()),
            ("cells", self.cells.to_json()),
            ("buffers", self.buffers.to_json_with(|row| cells.read(row))),
            ("overlay", self.overlay.to_json()),
            ("partitions", self.partitions.to_json()),
            ("rng", self.rng.to_json()),
            ("energy", self.energy.to_json()),
            ("stats", self.stats.to_json()),
            ("program_done_at", self.program_done_at.to_json()),
            ("write_pausing", self.write_pausing.to_json()),
            ("program_windows", self.program_windows.to_json()),
        ];
        Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
    }
}

impl FromJson for PramModule {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let ctx = |e: JsonError| e.context("PramModule");
        let mut f = Fields::new(v);
        let timing: PramTiming = f.get("timing").map_err(ctx)?;
        let strobes = StrobeWindows::try_of(&timing).map_err(|e| ctx(JsonError::new(e)))?;
        let cells: CellArray = f.get("cells").map_err(ctx)?;
        let buffers: Json = f.get("buffers").map_err(ctx)?;
        let buffers = RowBufferSet::from_json_with(&buffers, |row| {
            cells.contains(row).then(|| cells.read(row))
        })
        .map_err(|e| ctx(e.context("buffers")))?;
        let module = PramModule {
            timing,
            geometry: f.get("geometry").map_err(ctx)?,
            cells,
            buffers,
            overlay: f.get("overlay").map_err(ctx)?,
            partitions: f.get("partitions").map_err(ctx)?,
            rng: f.get("rng").map_err(ctx)?,
            energy: f.get("energy").map_err(ctx)?,
            stats: f.get("stats").map_err(ctx)?,
            program_done_at: f.get("program_done_at").map_err(ctx)?,
            write_pausing: f.get("write_pausing").map_err(ctx)?,
            program_windows: f.get("program_windows").map_err(ctx)?,
            strobes,
        };
        f.finish().map_err(ctx)?;
        Ok(module)
    }
}

impl PramModule {
    /// Creates a module with the paper geometry and the given timing.
    pub fn new(timing: PramTiming, seed: u64) -> Self {
        Self::with_geometry(timing, PramGeometry::paper(), seed)
    }

    /// Creates a module with explicit geometry (for scaled-down tests).
    pub fn with_geometry(timing: PramTiming, geometry: PramGeometry, seed: u64) -> Self {
        PramModule {
            buffers: RowBufferSet::new(timing.rdb_count),
            partitions: TimelineBank::new(geometry.partitions as usize),
            cells: CellArray::new(geometry),
            overlay: OverlayWindow::new(0),
            timing,
            geometry,
            rng: SimRng::seed(seed ^ 0x50524145), // "PRAE"
            energy: ModuleEnergy::default(),
            stats: ModuleStats::default(),
            program_done_at: None,
            write_pausing: false,
            program_windows: vec![None; geometry.partitions as usize],
            strobes: timing.strobes(),
        }
    }

    /// Checks a decoded module image against `built`, a module its
    /// configuration builds: the same timing, geometry and write
    /// pausing, a cell array of that geometry, one buffer pair per RDB
    /// the timing has, and one occupancy lane and one program window per
    /// partition. The request path indexes all of these without
    /// checking, and adds to every `stats` counter, the cell array's
    /// counters ([`CellArray::check`]) and every energy account, which
    /// must therefore lie under their ceilings
    /// ([`COUNTER_CEILING`](sim_core::snapshot::COUNTER_CEILING),
    /// [`ENERGY_CEILING`](sim_core::snapshot::ENERGY_CEILING)) — so a
    /// forged image must stop here.
    ///
    /// # Errors
    ///
    /// Names the first field that disagrees.
    pub fn check_shape(&self, built: &PramModule) -> Result<(), String> {
        check_config("timing", &self.timing, &built.timing)?;
        check_config("geometry", &self.geometry, &built.geometry)?;
        check_config("cells.geometry", self.cells.geometry(), &self.geometry)?;
        check_config("write_pausing", &self.write_pausing, &built.write_pausing)?;
        if self.buffers.len() != self.timing.rdb_count {
            return Err(format!(
                "buffers holds {} buffer pairs, the timing has {} RDBs",
                self.buffers.len(),
                self.timing.rdb_count
            ));
        }
        let parts = self.geometry.partitions as usize;
        self.partitions
            .check(parts)
            .map_err(|e| format!("partitions.{e}"))?;
        if self.program_windows.len() != parts {
            return Err(format!(
                "program_windows holds {} windows, the geometry has {parts} partitions",
                self.program_windows.len()
            ));
        }
        self.stats.check()?;
        self.cells.check().map_err(|e| format!("cells.{e}"))?;
        let e = &self.energy;
        for (field, acct) in [
            ("rab", e.rab),
            ("sense", e.sense),
            ("bus", e.bus),
            ("program", e.program),
            ("erase", e.erase),
        ] {
            acct.check().map_err(|e| format!("energy.{field}.{e}"))?;
        }
        Ok(())
    }

    /// Enables or disables write pausing: with it on, an activate that
    /// collides with an in-flight program suspends the program (paying
    /// the pause/resume overhead and stretching the program) instead of
    /// queueing behind it.
    pub fn set_write_pausing(&mut self, on: bool) {
        self.write_pausing = on;
    }

    /// Whether write pausing is enabled.
    pub fn write_pausing(&self) -> bool {
        self.write_pausing
    }

    /// The timing parameter set.
    pub fn timing(&self) -> &PramTiming {
        &self.timing
    }

    /// The geometry.
    pub fn geometry(&self) -> &PramGeometry {
        &self.geometry
    }

    /// Row-buffer state (for phase-skip decisions by the controller).
    pub fn buffers(&self) -> &RowBufferSet {
        &self.buffers
    }

    /// The overlay window.
    pub fn overlay(&self) -> &OverlayWindow {
        &self.overlay
    }

    /// Raw operation counters.
    pub fn stats(&self) -> &ModuleStats {
        &self.stats
    }

    /// Energy charged by this module so far, materialized as a ledger.
    pub fn energy(&self) -> EnergyBook {
        self.energy.book()
    }

    /// Direct functional read of a row (testing/verification back door —
    /// carries no timing).
    pub fn peek(&self, row: RowId) -> [u8; WORD_BYTES] {
        self.cells.read(row)
    }

    /// Whether `row`'s cells are pristine (next program is SET-only).
    pub fn is_pristine(&self, row: RowId) -> bool {
        self.cells.is_pristine(row)
    }

    /// Endurance summary of the module's cell array: see
    /// [`crate::cell::CellArray::endurance`].
    pub fn endurance(&self) -> (u32, usize) {
        self.cells.endurance()
    }

    /// When the partition `p` is next free.
    pub fn partition_free_at(&self, p: PartitionId) -> Picos {
        self.partitions.get(p.0 as usize).free_at()
    }

    /// Executes a pre-active phase: latches `upper` into RAB `ba`.
    ///
    /// Takes tRP on the module's control path.
    pub fn pre_active(&mut self, at: Picos, ba: BufferId, upper: UpperRow) -> PhaseTiming {
        self.buffers.latch_rab(ba, upper);
        self.stats.pre_actives += 1;
        self.energy.rab.charge(energy::PRE_ACTIVE);
        PhaseTiming {
            start: at,
            end: at + self.timing.trp(),
        }
    }

    /// Executes an activate phase: composes the row address from RAB `ba`
    /// and `lower`, senses the row into the paired RDB.
    ///
    /// Occupies the target *partition* for tRCD, so activations to
    /// different partitions proceed in parallel — the property the
    /// interleaving scheduler exploits.
    ///
    /// # Panics
    ///
    /// Panics if RAB `ba` was never latched (protocol violation);
    /// [`Self::try_activate`] surfaces that as a typed error instead.
    pub fn activate(&mut self, at: Picos, ba: BufferId, lower: LowerRow) -> PhaseTiming {
        self.try_activate(at, ba, lower)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::activate`] with protocol violations surfaced as values.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::EmptyRab`] if RAB `ba` was never latched.
    pub fn try_activate(
        &mut self,
        at: Picos,
        ba: BufferId,
        lower: LowerRow,
    ) -> Result<PhaseTiming, ProtocolError> {
        let upper = self
            .buffers
            .get(ba)
            .rab
            .ok_or(ProtocolError::EmptyRab(ba))?;
        let row = RowId::from_parts(upper, lower, self.geometry.lower_row_bits);
        let p = row.partition.0 as usize;
        // Write pausing: if an in-flight program owns the partition,
        // suspend it, run the sense, then resume the program with its
        // remaining time plus the pause/resume overhead.
        if self.write_pausing {
            if let Some(w) = self.program_windows[p] {
                if at >= w.start && at < w.end {
                    let remaining = w.end - at;
                    let start = at + self.timing.t_pause_resume;
                    let end = start + self.timing.trcd;
                    let resumed_end = end + remaining + self.timing.t_pause_resume;
                    self.partitions.get_mut(p).block_until(resumed_end);
                    self.program_windows[p] = Some(PhaseTiming {
                        start: end,
                        end: resumed_end,
                    });
                    if self.program_done_at == Some(w.end) {
                        self.program_done_at = Some(resumed_end);
                    }
                    self.stats.write_pauses += 1;
                    self.cells.check_row(row);
                    self.buffers.fill_rdb(ba, row);
                    self.stats.activates += 1;
                    self.energy.sense.charge(energy::ACTIVATE_SENSE);
                    return Ok(PhaseTiming { start, end });
                }
            }
        }
        let lane = self.partitions.get_mut(p);
        let start = lane.reserve(at, self.timing.trcd);
        let end = start + self.timing.trcd;
        self.cells.check_row(row);
        self.buffers.fill_rdb(ba, row);
        self.stats.activates += 1;
        self.energy.sense.charge(energy::ACTIVATE_SENSE);
        Ok(PhaseTiming { start, end })
    }

    /// Executes a read phase: bursts `bl` bytes from RDB `ba` starting at
    /// column `col`.
    ///
    /// `cmd_at` is when the read-phase command was issued; the data burst
    /// begins after the read preamble (RL + tDQSCK), *or* when the shared
    /// dq bus frees (`bus_free`), whichever is later — so back-to-back
    /// bursts on a channel pitch at tBURST with their preambles hidden,
    /// as in the Fig. 12 timing diagram. The caller reserves the dq bus
    /// for the final `[end - tburst, end]` window.
    ///
    /// # Panics
    ///
    /// Panics if RDB `ba` holds no sensed row (protocol violation;
    /// [`Self::try_read_burst`] surfaces that as a typed error), or the
    /// burst overruns the 32 B word.
    pub fn read_burst(
        &mut self,
        cmd_at: Picos,
        bus_free: Picos,
        ba: BufferId,
        col: u8,
        bl: BurstLen,
    ) -> (PhaseTiming, Vec<u8>) {
        self.try_read_burst(cmd_at, bus_free, ba, col, bl)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::read_burst`] with protocol violations surfaced as values.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::EmptyRdb`] if RDB `ba` holds no sensed row.
    ///
    /// # Panics
    ///
    /// Panics if the burst overruns the 32 B word (an address-math bug in
    /// the caller, not a runtime protocol state).
    pub fn try_read_burst(
        &mut self,
        cmd_at: Picos,
        bus_free: Picos,
        ba: BufferId,
        col: u8,
        bl: BurstLen,
    ) -> Result<(PhaseTiming, Vec<u8>), ProtocolError> {
        let t = self.try_read_burst_timed(cmd_at, bus_free, ba, col, bl)?;
        let row = self.buffers.rdb_row(ba).expect("checked by timed burst");
        let data = self.cells.read(row);
        let lo = col as usize;
        let hi = lo + bl.bytes() as usize;
        Ok((t, data[lo..hi].to_vec()))
    }

    /// Timing-only [`Self::try_read_burst`]: advances the exact same
    /// device state (RNG preamble draw, burst stats, bus energy) without
    /// materializing a copy of the data — the accelerator's performance
    /// model only consumes timing, and the per-burst `Vec` dominated the
    /// fill path's allocations.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::EmptyRdb`] if RDB `ba` holds no sensed row.
    ///
    /// # Panics
    ///
    /// Panics if the burst overruns the 32 B word.
    pub fn try_read_burst_timed(
        &mut self,
        cmd_at: Picos,
        bus_free: Picos,
        ba: BufferId,
        col: u8,
        bl: BurstLen,
    ) -> Result<PhaseTiming, ProtocolError> {
        if self.buffers.rdb_row(ba).is_none() {
            return Err(ProtocolError::EmptyRdb(ba));
        }
        let hi = col as usize + bl.bytes() as usize;
        assert!(
            hi <= WORD_BYTES,
            "burst overruns row word: col={col} {bl:?}"
        );
        let preamble = self.timing.rl() + self.strobes.tdqsck(&mut self.rng);
        let burst_start = (cmd_at + preamble).max(bus_free);
        let end = burst_start + self.timing.tburst(bl);
        self.stats.read_bursts += 1;
        self.energy
            .bus
            .charge(energy::BURST_PER_BYTE.scaled(bl.bytes() as u64));
        Ok(PhaseTiming { start: cmd_at, end })
    }

    /// Panicking wrapper of [`Self::try_read_burst_timed`], mirroring
    /// [`Self::read_burst`].
    ///
    /// # Panics
    ///
    /// Panics if RDB `ba` holds no sensed row, or the burst overruns the
    /// 32 B word.
    pub fn read_burst_timed(
        &mut self,
        cmd_at: Picos,
        bus_free: Picos,
        ba: BufferId,
        col: u8,
        bl: BurstLen,
    ) -> PhaseTiming {
        self.try_read_burst_timed(cmd_at, bus_free, ba, col, bl)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes a write phase towards the overlay window: a register write
    /// or a program-buffer fill, addressed by the offset relative to OWBA.
    ///
    /// The returned timing covers the write preamble (WL + tDQSS) and the
    /// burst; the caller arbitrates the channel dq bus.
    ///
    /// # Panics
    ///
    /// Panics if `offset` falls outside the overlay window, or a register
    /// write carries more than 8 bytes.
    pub fn write_overlay(&mut self, at: Picos, offset: u64, data: &[u8]) -> PhaseTiming {
        use crate::overlay::regs;
        let bl = BurstLen::covering(data.len() as u32);
        let preamble = self.timing.wl() + self.strobes.tdqss(&mut self.rng);
        let end = at + preamble + self.timing.tburst(bl);
        self.stats.write_bursts += 1;
        self.energy
            .bus
            .charge(energy::BURST_PER_BYTE.scaled(data.len() as u64));

        if offset >= regs::PROGRAM_BUFFER {
            let buf_off = (offset - regs::PROGRAM_BUFFER) as usize;
            self.overlay.fill_program_buffer(buf_off, data);
        } else {
            assert!(data.len() <= 8, "register write wider than 8 bytes");
            // The little-endian value of the bytes, zero-extended.
            let v = data.iter().rev().fold(0u64, |v, &b| (v << 8) | b as u64);
            self.overlay.write_reg(offset, v);
        }
        PhaseTiming { start: at, end }
    }

    /// Writes the execute register: starts the staged array program.
    ///
    /// The program occupies the target partition for the cell time (10 µs
    /// SET-only / 18 µs overwrite / 8 µs word-granular selective erase)
    /// plus tWRA, and invalidates any RDB holding the row. Returns the
    /// phase covering the whole program.
    ///
    /// # Panics
    ///
    /// Panics if no program was staged (protocol violation;
    /// [`Self::try_execute_program`] surfaces that as a typed error).
    pub fn execute_program(&mut self, at: Picos) -> PhaseTiming {
        self.try_execute_program(at)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::execute_program`] with protocol violations surfaced as
    /// values.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NothingStaged`] if no program was staged in the
    /// overlay window.
    pub fn try_execute_program(&mut self, at: Picos) -> Result<PhaseTiming, ProtocolError> {
        let staged = self.overlay.execute().ok_or(ProtocolError::NothingStaged)?;
        let (row, offset) = self.geometry.decode(staged.target_addr);
        assert_eq!(offset, 0, "programs are word-aligned");
        // Read-modify-write semantics for partial bursts. A full-word
        // burst overwrites every byte, so it programs without the read.
        let n = staged.burst_bytes.min(WORD_BYTES as u32) as usize;
        let word = if n == WORD_BYTES {
            staged.data
        } else {
            let mut word = self.cells.read(row);
            word[..n].copy_from_slice(&staged.data[..n]);
            word
        };
        Ok(self.apply_program(at, row, &word))
    }

    /// Runs the whole §V-B sequence for one word in one call: the
    /// command-code (0xE9), row-address and burst-size register writes
    /// and the program-buffer fill, each issued one interface clock
    /// after the previous burst ends and no earlier than the channel's
    /// `dq_bus` frees, then the execute packet two clocks after the
    /// fill, which programs `word` into `row`.
    ///
    /// Everything the register API does for that sequence
    /// ([`Self::write_overlay`] four times, then
    /// [`Self::execute_program`]) happens here in the same order: the
    /// same four tDQSS draws, burst counts, bus energy and `dq_bus`
    /// reservations, the same overlay registers left behind and the
    /// same program. What it skips is encoding the registers to bytes,
    /// parsing them back and decoding the row a second time.
    pub fn post_program(
        &mut self,
        at: Picos,
        dq_bus: &mut Timeline,
        row: RowId,
        word: &[u8; WORD_BYTES],
    ) -> PostedProgram {
        let tck = self.timing.tck();
        let wl = self.timing.wl();
        // The 1-, 8- and 1-byte registers each fit a BL4 burst; the fill
        // is one BL16 word.
        let reg = self.timing.tburst(BurstLen::Bl4);
        let fill = self.timing.tburst(BurstLen::Bl16);
        let mut bursts = [PhaseTiming::instant(at); 4];
        let mut t = at;
        for (burst, dur) in bursts.iter_mut().zip([reg, reg, reg, fill]) {
            let issue = (t + tck).max(dq_bus.free_at());
            let end = issue + (wl + self.strobes.tdqss(&mut self.rng)) + dur;
            dq_bus.reserve(end - dur, dur);
            *burst = PhaseTiming { start: issue, end };
            t = end;
        }
        self.stats.write_bursts += 4;
        self.energy.bus.charge_many(
            energy::BURST_PER_BYTE.scaled(1 + 8 + 1 + WORD_BYTES as u64),
            4,
        );
        self.overlay.post(self.geometry.encode(row));
        let accepted = t + tck * 2;
        PostedProgram {
            bursts,
            accepted,
            program: self.apply_program(accepted, row, word),
        }
    }

    /// Programs `word` into `row` at `at`: the array half of every
    /// program, whichever way its sequence was staged.
    fn apply_program(&mut self, at: Picos, row: RowId, word: &[u8; WORD_BYTES]) -> PhaseTiming {
        let kind = self.cells.program(row, word);
        let (cell_time, e) = match kind {
            ProgramKind::SetOnly => {
                self.stats.set_only_programs += 1;
                (self.timing.t_program_set, energy::PROGRAM_SET)
            }
            ProgramKind::Overwrite => {
                self.stats.overwrite_programs += 1;
                (
                    self.timing.t_program_overwrite(),
                    energy::PROGRAM_SET + energy::PROGRAM_RESET_EXTRA,
                )
            }
            ProgramKind::SelectiveErase => {
                self.stats.selective_erases += 1;
                // RESET pulses only: the t_reset_extra component.
                (self.timing.t_reset_extra, energy::PROGRAM_RESET_EXTRA)
            }
            ProgramKind::NoopErase => (Picos::ZERO, Joules::ZERO),
        };
        self.stats.programs += 1;
        self.energy.program.charge(e);

        let lane = self.partitions.get_mut(row.partition.0 as usize);
        let dur = cell_time + self.timing.twra;
        let start = lane.reserve(at, dur);
        let end = start + dur;
        self.buffers.invalidate_row(row);
        self.program_done_at = Some(end);
        self.program_windows[row.partition.0 as usize] = Some(PhaseTiming { start, end });
        self.overlay.set_status(OverlayStatus::Busy);
        PhaseTiming { start, end }
    }

    /// Relocates one row's contents to another row of the module (the
    /// start-gap wear-leveling copy): a sense of `from` followed by a
    /// program of its word into `to`. Occupies both partitions; a no-op
    /// program if `from` is pristine.
    pub fn relocate(&mut self, at: Picos, from: RowId, to: RowId) -> PhaseTiming {
        let word = self.cells.read(from);
        let sense = {
            let lane = self.partitions.get_mut(from.partition.0 as usize);
            let start = lane.reserve(at, self.timing.trcd);
            PhaseTiming {
                start,
                end: start + self.timing.trcd,
            }
        };
        self.energy.sense.charge(energy::ACTIVATE_SENSE);
        let kind = self.cells.program(to, &word);
        let (cell_time, e) = match kind {
            ProgramKind::SetOnly => (self.timing.t_program_set, energy::PROGRAM_SET),
            ProgramKind::Overwrite => (
                self.timing.t_program_overwrite(),
                energy::PROGRAM_SET + energy::PROGRAM_RESET_EXTRA,
            ),
            ProgramKind::SelectiveErase => (self.timing.t_reset_extra, energy::PROGRAM_RESET_EXTRA),
            ProgramKind::NoopErase => (Picos::ZERO, Joules::ZERO),
        };
        self.energy.program.charge(e);
        let lane = self.partitions.get_mut(to.partition.0 as usize);
        let dur = cell_time + self.timing.twra;
        let start = lane.reserve(sense.end, dur);
        self.buffers.invalidate_row(from);
        self.buffers.invalidate_row(to);
        PhaseTiming {
            start: sense.start,
            end: start + dur,
        }
    }

    /// Word-granular *selective erase* (§V-A): programs all-zero data into
    /// `row`, mimicking RESET pulses so the next program is SET-only.
    ///
    /// This is the internal fast path the controller uses for background
    /// pre-erasing; it occupies the partition for the RESET time + tWRA
    /// and is a no-op (zero duration) on an already-pristine word.
    pub fn pre_erase(&mut self, at: Picos, row: RowId) -> PhaseTiming {
        if self.cells.is_pristine(row) {
            return PhaseTiming::instant(at);
        }
        self.cells.program(row, &[0u8; WORD_BYTES]);
        self.stats.programs += 1;
        self.stats.selective_erases += 1;
        self.energy.program.charge(energy::PROGRAM_RESET_EXTRA);
        let lane = self.partitions.get_mut(row.partition.0 as usize);
        let dur = self.timing.t_reset_extra + self.timing.twra;
        let start = lane.reserve(at, dur);
        self.buffers.invalidate_row(row);
        PhaseTiming {
            start,
            end: start + dur,
        }
    }

    /// Polls the status register at time `at`.
    pub fn poll_status(&mut self, at: Picos) -> OverlayStatus {
        if let Some(done) = self.program_done_at {
            if at >= done {
                self.program_done_at = None;
                self.overlay.set_status(OverlayStatus::Ready);
            }
        }
        self.overlay.status()
    }

    /// Erases partition `p`: a ~60 ms blocking operation that RESETs every
    /// word and stalls all requests to the partition (§V-A).
    pub fn erase_partition(&mut self, at: Picos, p: PartitionId) -> PhaseTiming {
        let lane = self.partitions.get_mut(p.0 as usize);
        let start = lane.reserve(at, self.timing.t_erase);
        let end = start + self.timing.t_erase;
        self.cells.erase_partition(p);
        self.buffers.invalidate_all();
        self.stats.partition_erases += 1;
        self.energy.erase.charge(energy::ERASE);
        PhaseTiming { start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> PramModule {
        PramModule::new(PramTiming::table2(), 42)
    }

    /// Runs a full three-phase read of `row`, returning the end time.
    fn full_read(m: &mut PramModule, at: Picos, row: RowId) -> (Picos, Vec<u8>) {
        let g = m.geometry().lower_row_bits;
        let pre = m.pre_active(at, BufferId::B0, row.upper(g));
        let act = m.activate(pre.end, BufferId::B0, row.lower(g));
        let (rd, data) = m.read_burst(act.end, Picos::ZERO, BufferId::B0, 0, BurstLen::Bl16);
        (rd.end, data)
    }

    /// Runs a full overlay write of `word` to `row`, returning the program
    /// completion time.
    fn full_write(m: &mut PramModule, at: Picos, row: RowId, word: [u8; WORD_BYTES]) -> Picos {
        use crate::overlay::regs;
        let addr = m.geometry().encode(row);
        let t1 = m.write_overlay(at, regs::COMMAND_CODE, &[0xE9]);
        let t2 = m.write_overlay(t1.end, regs::DATA_ADDRESS, &addr.to_le_bytes());
        let t3 = m.write_overlay(t2.end, regs::MULTI_PURPOSE, &[32]);
        let t4 = m.write_overlay(t3.end, regs::PROGRAM_BUFFER, &word);
        m.execute_program(t4.end).end
    }

    #[test]
    fn post_program_matches_the_register_sequence() {
        // One call per word program must leave the module, its overlay
        // registers and the dq bus exactly as the five register writes
        // of §V-B do, on pristine words and on overwrites, whether the
        // bus is idle or still busy with an earlier burst.
        use crate::overlay::regs;
        let mut by_regs = module();
        let mut by_call = module();
        let (mut bus_regs, mut bus_call) = (Timeline::new(), Timeline::new());
        let g = *by_regs.geometry();
        for i in 0..64u64 {
            let row = g.row_of_word(i % 24);
            let word = [(i as u8) ^ 0x5A; WORD_BYTES];
            let at = Picos::from_ns(i * 37);
            if i % 5 == 0 {
                for bus in [&mut bus_regs, &mut bus_call] {
                    bus.reserve(at, Picos::from_ns(90));
                }
            }
            let tck = by_regs.timing().tck();
            let mut t = at;
            let mut bursts = Vec::new();
            let addr = g.encode(row).to_le_bytes();
            for (offset, bytes) in [
                (regs::COMMAND_CODE, &[0xE9u8][..]),
                (regs::DATA_ADDRESS, &addr),
                (regs::MULTI_PURPOSE, &[WORD_BYTES as u8]),
                (regs::PROGRAM_BUFFER, &word),
            ] {
                let issue = (t + tck).max(bus_regs.free_at());
                let w = by_regs.write_overlay(issue, offset, bytes);
                let dur = by_regs
                    .timing()
                    .tburst(BurstLen::covering(bytes.len() as u32));
                bus_regs.reserve(w.end - dur, dur);
                bursts.push(w);
                t = w.end;
            }
            let program = by_regs.execute_program(t + tck * 2);
            let posted = by_call.post_program(at, &mut bus_call, row, &word);
            assert_eq!(posted.bursts.to_vec(), bursts, "word {i}");
            assert_eq!(posted.accepted, t + tck * 2);
            assert_eq!(posted.program, program);
            assert_eq!(bus_call, bus_regs);
            assert_eq!(by_call.to_json(), by_regs.to_json(), "word {i}");
        }
    }

    #[test]
    fn three_phase_read_takes_roughly_100ns() {
        let mut m = module();
        let (end, data) = full_read(&mut m, Picos::ZERO, RowId::new(0, 0));
        assert_eq!(data, vec![0; 32]);
        // tRP 7.5 + tRCD 80 + RL 15 + tDQSCK 2.5..5.5 + tBURST 40 ≈ 145-148 ns.
        assert!(
            end >= Picos::from_ns(140) && end <= Picos::from_ns(155),
            "{end}"
        );
    }

    #[test]
    fn write_then_read_round_trips_data() {
        let mut m = module();
        let row = RowId::new(4, 77);
        let word = [0x5A; WORD_BYTES];
        let done = full_write(&mut m, Picos::ZERO, row, word);
        let (_, data) = full_read(&mut m, done, row);
        assert_eq!(data, word.to_vec());
    }

    #[test]
    fn set_only_vs_overwrite_latency() {
        let mut m = module();
        let row = RowId::new(0, 10);
        let t0 = Picos::ZERO;
        let first_done = full_write(&mut m, t0, row, [1; WORD_BYTES]);
        let first_program = first_done; // includes 10us program
        let second_done = full_write(&mut m, first_done, row, [2; WORD_BYTES]);
        let first_cost = first_program - t0;
        let second_cost = second_done - first_done;
        // Overwrite costs ~8 us more (RESET+SET vs SET).
        assert!(
            second_cost > first_cost + Picos::from_us(7),
            "{first_cost} vs {second_cost}"
        );
        assert!(first_cost > Picos::from_us(10));
        assert!(second_cost > Picos::from_us(18));
    }

    #[test]
    fn selective_erase_is_short_and_restores_set_only_path() {
        let mut m = module();
        let row = RowId::new(0, 3);
        let d1 = full_write(&mut m, Picos::ZERO, row, [7; WORD_BYTES]);
        // Program zeros: selective erase (RESET only ≈ 8 us).
        let d2 = full_write(&mut m, d1, row, [0; WORD_BYTES]);
        let erase_cost = d2 - d1;
        assert!(erase_cost < Picos::from_us(9), "{erase_cost}");
        // The word is pristine: the next write is SET-only (~10 us).
        let d3 = full_write(&mut m, d2, row, [9; WORD_BYTES]);
        let w_cost = d3 - d2;
        assert!(w_cost < Picos::from_us(12), "{w_cost}");
        assert_eq!(m.stats().selective_erases, 1);
        assert_eq!(m.stats().set_only_programs, 2);
    }

    #[test]
    fn activations_to_different_partitions_overlap() {
        let mut m = module();
        let r0 = RowId::new(0, 0);
        let r1 = RowId::new(1, 0);
        let g = m.geometry().lower_row_bits;
        m.pre_active(Picos::ZERO, BufferId::B0, r0.upper(g));
        m.pre_active(Picos::ZERO, BufferId::B1, r1.upper(g));
        let a0 = m.activate(Picos::from_ns(10), BufferId::B0, r0.lower(g));
        let a1 = m.activate(Picos::from_ns(10), BufferId::B1, r1.lower(g));
        // Parallel: both start at 10 ns.
        assert_eq!(a0.start, a1.start);
    }

    #[test]
    fn activations_to_same_partition_serialize() {
        let mut m = module();
        let r0 = RowId::new(2, 0);
        let r1 = RowId::new(2, 100);
        let g = m.geometry().lower_row_bits;
        m.pre_active(Picos::ZERO, BufferId::B0, r0.upper(g));
        m.pre_active(Picos::ZERO, BufferId::B1, r1.upper(g));
        let a0 = m.activate(Picos::from_ns(10), BufferId::B0, r0.lower(g));
        let a1 = m.activate(Picos::from_ns(10), BufferId::B1, r1.lower(g));
        assert_eq!(a1.start, a0.end);
    }

    #[test]
    fn erase_blocks_partition_for_60ms() {
        let mut m = module();
        let row = RowId::new(5, 8);
        full_write(&mut m, Picos::ZERO, row, [3; WORD_BYTES]);
        let e = m.erase_partition(Picos::from_us(100), PartitionId(5));
        assert_eq!(e.duration(), Picos::from_ms(60));
        // Data gone.
        assert_eq!(m.peek(row), [0; WORD_BYTES]);
        // Subsequent activate to that partition waits for the erase.
        let g = m.geometry().lower_row_bits;
        m.pre_active(e.start, BufferId::B0, row.upper(g));
        let act = m.activate(e.start, BufferId::B0, row.lower(g));
        assert!(act.start >= e.end);
    }

    #[test]
    fn program_invalidates_stale_rdb() {
        let mut m = module();
        let row = RowId::new(1, 5);
        // Sense pristine row into RDB.
        let (_, data) = full_read(&mut m, Picos::ZERO, row);
        assert_eq!(data, vec![0; 32]);
        // Program new data.
        let done = full_write(&mut m, Picos::from_us(1), row, [8; WORD_BYTES]);
        // RDB no longer claims to hold the row; a fresh read senses again.
        assert!(m.buffers().find_rdb(row).is_none());
        let (_, data) = full_read(&mut m, done, row);
        assert_eq!(data, vec![8; 32]);
    }

    #[test]
    fn status_polling_tracks_program() {
        let mut m = module();
        let row = RowId::new(0, 0);
        use crate::overlay::regs;
        let addr = m.geometry().encode(row);
        m.write_overlay(Picos::ZERO, regs::COMMAND_CODE, &[0xE9]);
        m.write_overlay(Picos::ZERO, regs::DATA_ADDRESS, &addr.to_le_bytes());
        m.write_overlay(Picos::ZERO, regs::PROGRAM_BUFFER, &[1; 32]);
        let p = m.execute_program(Picos::from_ns(500));
        assert_eq!(
            m.poll_status(p.start + Picos::from_us(1)),
            OverlayStatus::Busy
        );
        assert_eq!(m.poll_status(p.end), OverlayStatus::Ready);
    }

    #[test]
    fn energy_accumulates_by_component() {
        let mut m = module();
        let row = RowId::new(0, 0);
        full_write(&mut m, Picos::ZERO, row, [1; WORD_BYTES]);
        full_read(&mut m, Picos::from_us(100), row);
        assert!(m.energy().energy_of("pram.program") > Joules::ZERO);
        assert!(m.energy().energy_of("pram.sense") > Joules::ZERO);
        assert!(m.energy().energy_of("pram.bus") > Joules::ZERO);
        // Programs dominate sensing.
        assert!(m.energy().energy_of("pram.program") > m.energy().energy_of("pram.sense"));
    }

    #[test]
    #[should_panic(expected = "empty RAB")]
    fn activate_without_preactive_panics() {
        let mut m = module();
        m.activate(Picos::ZERO, BufferId::B0, LowerRow(0));
    }

    #[test]
    #[should_panic(expected = "empty RDB")]
    fn read_without_activate_panics() {
        let mut m = module();
        m.read_burst(Picos::ZERO, Picos::ZERO, BufferId::B0, 0, BurstLen::Bl16);
    }

    #[test]
    fn try_variants_surface_protocol_errors_as_values() {
        let mut m = module();
        assert_eq!(
            m.try_activate(Picos::ZERO, BufferId::B1, LowerRow(0)).err(),
            Some(ProtocolError::EmptyRab(BufferId::B1))
        );
        assert_eq!(
            m.try_read_burst(Picos::ZERO, Picos::ZERO, BufferId::B2, 0, BurstLen::Bl16)
                .err(),
            Some(ProtocolError::EmptyRdb(BufferId::B2))
        );
        assert_eq!(
            m.try_execute_program(Picos::ZERO).err(),
            Some(ProtocolError::NothingStaged)
        );
        // Errors mutate nothing: the module still services a clean read.
        assert_eq!(m.stats().activates, 0);
        let row = RowId::new(0, 0);
        let g = m.geometry().lower_row_bits;
        let pre = m.pre_active(Picos::ZERO, BufferId::B1, row.upper(g));
        assert!(m.try_activate(pre.end, BufferId::B1, row.lower(g)).is_ok());
        assert!(m
            .try_read_burst(Picos::ZERO, Picos::ZERO, BufferId::B2, 0, BurstLen::Bl16)
            .is_err());
        assert!(m
            .try_read_burst(Picos::ZERO, Picos::ZERO, BufferId::B1, 0, BurstLen::Bl16)
            .is_ok());
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    fn module() -> PramModule {
        PramModule::new(PramTiming::table2(), 9)
    }

    /// Issues a full overlay write so a program is in flight.
    fn start_program(m: &mut PramModule, at: Picos, row: RowId) -> PhaseTiming {
        use crate::overlay::regs;
        let addr = m.geometry().encode(row);
        let t = m.write_overlay(at, regs::COMMAND_CODE, &[0xE9]);
        let t = m.write_overlay(t.end, regs::DATA_ADDRESS, &addr.to_le_bytes());
        let t = m.write_overlay(t.end, regs::PROGRAM_BUFFER, &[0x77; WORD_BYTES]);
        m.execute_program(t.end)
    }

    #[test]
    fn write_pausing_lets_reads_preempt_programs() {
        let mut m = module();
        m.set_write_pausing(true);
        let row = RowId::new(4, 10);
        let prog = start_program(&mut m, Picos::ZERO, row);
        // A read to the same partition mid-program.
        let mid = prog.start + Picos::from_us(3);
        let other = RowId::new(4, 500);
        let lb = m.geometry().lower_row_bits;
        m.pre_active(mid, BufferId::B0, other.upper(lb));
        let act = m.activate(mid, BufferId::B0, other.lower(lb));
        // Preempts: the sense begins right after the pause overhead, far
        // before the original program end.
        assert!(act.start < prog.end, "read should not queue behind program");
        assert_eq!(act.start, mid + m.timing().t_pause_resume);
        assert_eq!(m.stats().write_pauses, 1);
        // The program stretched past its original end.
        let done = m.poll_status(prog.end);
        assert_eq!(done, crate::overlay::OverlayStatus::Busy);
    }

    #[test]
    fn without_pausing_reads_queue_behind_programs() {
        let mut m = module();
        let row = RowId::new(4, 10);
        let prog = start_program(&mut m, Picos::ZERO, row);
        let mid = prog.start + Picos::from_us(3);
        let other = RowId::new(4, 500);
        let lb = m.geometry().lower_row_bits;
        m.pre_active(mid, BufferId::B0, other.upper(lb));
        let act = m.activate(mid, BufferId::B0, other.lower(lb));
        assert!(act.start >= prog.end, "read must wait for the program");
        assert_eq!(m.stats().write_pauses, 0);
    }

    #[test]
    fn paused_program_still_completes_functionally() {
        let mut m = module();
        m.set_write_pausing(true);
        let row = RowId::new(2, 7);
        let prog = start_program(&mut m, Picos::ZERO, row);
        let lb = m.geometry().lower_row_bits;
        let other = RowId::new(2, 600);
        m.pre_active(
            prog.start + Picos::from_us(1),
            BufferId::B1,
            other.upper(lb),
        );
        m.activate(
            prog.start + Picos::from_us(1),
            BufferId::B1,
            other.lower(lb),
        );
        // Data landed regardless of the pause.
        assert_eq!(m.peek(row), [0x77; WORD_BYTES]);
        // Status eventually clears (after the stretched window).
        let late = prog.end + Picos::from_us(100);
        assert_eq!(m.poll_status(late), crate::overlay::OverlayStatus::Ready);
    }

    #[test]
    fn pause_outside_program_window_is_normal_queueing() {
        let mut m = module();
        m.set_write_pausing(true);
        let row = RowId::new(1, 1);
        let prog = start_program(&mut m, Picos::ZERO, row);
        // Activate after the program finished: plain path, no pause.
        let lb = m.geometry().lower_row_bits;
        let other = RowId::new(1, 99);
        m.pre_active(prog.end, BufferId::B0, other.upper(lb));
        let act = m.activate(prog.end, BufferId::B0, other.lower(lb));
        assert_eq!(m.stats().write_pauses, 0);
        assert!(act.start >= prog.end);
    }

    #[test]
    fn relocate_moves_data_and_charges_both_partitions() {
        let mut m = module();
        let from = RowId::new(3, 40);
        let to = RowId::new(7, 41);
        let prog = start_program(&mut m, Picos::ZERO, from);
        let r = m.relocate(prog.end, from, to);
        assert_eq!(m.peek(to), [0x77; WORD_BYTES]);
        // Source keeps its contents (start-gap copies, the old slot is
        // then logically reused).
        assert_eq!(m.peek(from), [0x77; WORD_BYTES]);
        // Sense + SET program.
        assert!(r.end - r.start >= Picos::from_us(10));
        // Both partitions were occupied.
        assert!(m.partition_free_at(PartitionId(3)) > prog.end);
        assert!(m.partition_free_at(PartitionId(7)) >= r.end);
    }

    #[test]
    fn relocate_pristine_source_is_cheap() {
        let mut m = module();
        let from = RowId::new(0, 5);
        let to = RowId::new(1, 5);
        let r = m.relocate(Picos::ZERO, from, to);
        // Pristine source: programming zeros to a pristine target is a
        // no-op — only the sense is paid.
        assert!(r.end - r.start < Picos::from_us(1), "{:?}", r.end - r.start);
    }
}
