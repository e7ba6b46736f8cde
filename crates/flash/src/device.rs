//! The flash device: FTL + die timelines + channel bus + functional store.

use crate::ftl::{Ftl, FtlError, FtlOp};
use crate::geometry::FlashGeometry;
use crate::timing::{CellKind, FlashTiming};
use sim_core::energy::{EnergyBook, Watts};
use sim_core::mem::Access;
use sim_core::snapshot::{check_config, check_counter};
use sim_core::time::Picos;
use sim_core::timeline::{Timeline, TimelineBank};
use std::collections::HashMap;

/// Active power of a die during array operations.
const P_ARRAY: Watts = Watts(0.030);
/// Power of the channel bus during transfers.
const P_BUS: Watts = Watts(0.200);
/// Erase pulse power.
const P_ERASE: Watts = Watts(0.045);

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashStats {
    /// Host page reads.
    pub page_reads: u64,
    /// Host page writes.
    pub page_writes: u64,
    /// GC page relocations executed.
    pub gc_moves: u64,
    /// Block erases executed.
    pub erases: u64,
}

util::json_struct!(FlashStats {
    page_reads,
    page_writes,
    gc_moves,
    erases
});

/// A timing + functional model of one NAND device (SSD back end or the
/// embedded flash of the Integrated-* accelerators).
///
/// # Examples
///
/// ```
/// use flash::{CellKind, FlashDevice, FlashGeometry};
/// use sim_core::Picos;
///
/// let mut dev = FlashDevice::new(FlashGeometry::tiny(), CellKind::Slc);
/// let page = vec![7u8; dev.page_bytes() as usize];
/// let w = dev.write_page(Picos::ZERO, 3, &page);
/// let (r, data) = dev.read_page(w.end, 3);
/// assert_eq!(data.unwrap(), page);
/// assert!(r.end > w.end);
/// ```
#[derive(Debug, Clone)]
pub struct FlashDevice {
    ftl: Ftl,
    timing: FlashTiming,
    kind: CellKind,
    dies: TimelineBank,
    bus: Timeline,
    /// Functional store, keyed by logical page (the FTL remap is
    /// transparent to contents).
    data: HashMap<u64, Vec<u8>>,
    stats: FlashStats,
    energy: EnergyBook,
}

util::json_struct!(FlashDevice {
    ftl,
    timing,
    kind,
    dies,
    bus,
    data,
    stats,
    energy
});

impl FlashDevice {
    /// Creates a device of the given geometry and cell kind with Table I
    /// timing.
    pub fn new(geometry: FlashGeometry, kind: CellKind) -> Self {
        Self::with_timing(geometry, kind, FlashTiming::table1(kind))
    }

    /// Creates a device with explicit timing (e.g.
    /// [`FlashTiming::table1_scaled`] for reduced page sizes).
    pub fn with_timing(geometry: FlashGeometry, kind: CellKind, timing: FlashTiming) -> Self {
        FlashDevice {
            dies: TimelineBank::new(geometry.dies),
            ftl: Ftl::new(geometry, 2),
            timing,
            kind,
            bus: Timeline::new(),
            data: HashMap::new(),
            stats: FlashStats::default(),
            energy: EnergyBook::new(),
        }
    }

    /// Checks a decoded device against `built`, the device its
    /// configuration builds: the same timing and cell kind, an FTL
    /// shaped as built ([`Ftl::check_shape`]), one timeline per die and
    /// counters under their ceilings.
    ///
    /// # Errors
    ///
    /// Names the first field that disagrees (`ftl.blocks[0] holds ...`).
    pub fn check_shape(&self, built: &FlashDevice) -> Result<(), String> {
        check_config("timing", &self.timing, &built.timing)?;
        check_config("kind", &self.kind, &built.kind)?;
        self.ftl
            .check_shape(&built.ftl)
            .map_err(|e| format!("ftl.{e}"))?;
        self.dies
            .check(built.dies.len())
            .map_err(|e| format!("dies.{e}"))?;
        self.bus.check().map_err(|e| format!("bus.{e}"))?;
        let s = &self.stats;
        for (field, n) in [
            ("page_reads", s.page_reads),
            ("page_writes", s.page_writes),
            ("gc_moves", s.gc_moves),
            ("erases", s.erases),
        ] {
            check_counter(format_args!("stats.{field}"), n)?;
        }
        self.energy.check().map_err(|e| format!("energy.{e}"))
    }

    /// The cell kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u32 {
        self.ftl.geometry().page_bytes
    }

    /// The timing in effect.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Counters.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// FTL statistics (write amplification etc.).
    pub fn ftl_stats(&self) -> &crate::ftl::FtlStats {
        self.ftl.stats()
    }

    /// Energy ledger snapshot.
    pub fn energy(&self) -> &EnergyBook {
        &self.energy
    }

    /// Reads logical page `lpn`: die array read (tR), then channel
    /// transfer. Returns `None` data for a never-written page (timing
    /// still charged — the device senses an erased page).
    pub fn read_page(&mut self, at: Picos, lpn: u64) -> (Access, Option<Vec<u8>>) {
        self.stats.page_reads += 1;
        let die = self.ftl.translate(lpn).map(|p| p.die).unwrap_or(0);
        let (start, sensed) = self.dies.get_mut(die).reserve_span(at, self.timing.t_read);
        self.energy
            .charge("flash.read", P_ARRAY * self.timing.t_read);
        let xfer = self.timing.transfer(self.page_bytes());
        let (_, end) = self.bus.reserve_span(sensed, xfer);
        self.energy.charge("flash.bus", P_BUS * xfer);
        (Access { start, end }, self.data.get(&lpn).cloned())
    }

    /// Writes logical page `lpn`: channel transfer, program (tPROG), plus
    /// any garbage-collection work the FTL scheduled behind it.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page, or on an FTL request
    /// failure ([`Self::try_write_page`] propagates it instead).
    pub fn write_page(&mut self, at: Picos, lpn: u64, data: &[u8]) -> Access {
        self.try_write_page(at, lpn, data)
            .unwrap_or_else(|e| panic!("flash write of lpn {lpn} failed: {e}"))
    }

    /// [`Self::write_page`] with FTL request failures surfaced as typed
    /// errors instead of panics. Timing already charged (bus transfer,
    /// completed FTL ops) stays charged — a rejected request still
    /// occupied the channel.
    ///
    /// # Errors
    ///
    /// Propagates [`FtlError`] from the mapping layer.
    pub fn try_write_page(&mut self, at: Picos, lpn: u64, data: &[u8]) -> Result<Access, FtlError> {
        assert_eq!(
            data.len(),
            self.page_bytes() as usize,
            "flash writes are page-granular"
        );
        self.stats.page_writes += 1;
        let xfer = self.timing.transfer(self.page_bytes());
        let (start, in_reg) = self.bus.reserve_span(at, xfer);
        self.energy.charge("flash.bus", P_BUS * xfer);

        let ops = self.ftl.write(lpn)?;
        let mut end = in_reg;
        let mut gc_reads = 0u64;
        for op in ops {
            match op {
                FtlOp::Program(p) => {
                    let (_, e) = self
                        .dies
                        .get_mut(p.die)
                        .reserve_span(end, self.timing.t_program);
                    self.energy
                        .charge("flash.program", P_ARRAY * self.timing.t_program);
                    end = e;
                }
                FtlOp::Read(p) => {
                    let (_, e) = self
                        .dies
                        .get_mut(p.die)
                        .reserve_span(end, self.timing.t_read);
                    self.energy
                        .charge("flash.read", P_ARRAY * self.timing.t_read);
                    gc_reads += 1;
                    end = e;
                }
                FtlOp::Erase { die, .. } => {
                    let (_, e) = self
                        .dies
                        .get_mut(die)
                        .reserve_span(end, self.timing.t_erase);
                    self.energy
                        .charge("flash.erase", P_ERASE * self.timing.t_erase);
                    self.stats.erases += 1;
                    end = e;
                }
            }
        }
        self.stats.gc_moves += gc_reads;
        self.data.insert(lpn, data.to_vec());
        Ok(Access { start, end })
    }

    /// Preloads data functionally without charging simulated time (models
    /// the pre-evaluation initialization: "we initialize the data and
    /// place it in the persistent storages").
    ///
    /// # Panics
    ///
    /// Panics on an FTL request failure (preloads address valid pages by
    /// construction).
    pub fn preload(&mut self, lpn: u64, data: &[u8]) {
        assert_eq!(data.len(), self.page_bytes() as usize);
        self.ftl
            .write(lpn)
            .unwrap_or_else(|e| panic!("flash preload of lpn {lpn} failed: {e}"));
        self.data.insert(lpn, data.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(kind: CellKind) -> FlashDevice {
        FlashDevice::new(FlashGeometry::tiny(), kind)
    }

    #[test]
    fn read_of_unwritten_page_returns_none() {
        let mut d = dev(CellKind::Slc);
        let (a, data) = d.read_page(Picos::ZERO, 5);
        assert!(data.is_none());
        assert!(a.end > a.start);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut d = dev(CellKind::Mlc);
        let page = vec![0xAB; d.page_bytes() as usize];
        let w = d.write_page(Picos::ZERO, 9, &page);
        let (_, back) = d.read_page(w.end, 9);
        assert_eq!(back.unwrap(), page);
    }

    #[test]
    fn read_latency_matches_table1_plus_transfer() {
        let mut d = dev(CellKind::Slc);
        let (a, _) = d.read_page(Picos::ZERO, 0);
        // tR 25 us + 16 KB @ 800 MB/s ≈ 20.5 us.
        let lat = a.end - a.start;
        assert!(
            lat > Picos::from_us(44) && lat < Picos::from_us(47),
            "{lat}"
        );
    }

    #[test]
    fn slc_faster_than_tlc() {
        let mut s = dev(CellKind::Slc);
        let mut t = dev(CellKind::Tlc);
        let page = vec![1; s.page_bytes() as usize];
        let ws = s.write_page(Picos::ZERO, 0, &page);
        let wt = t.write_page(Picos::ZERO, 0, &page);
        assert!(ws.end < wt.end);
    }

    #[test]
    fn writes_to_different_dies_overlap() {
        let mut d = dev(CellKind::Slc);
        let page = vec![1; d.page_bytes() as usize];
        // Round-robin FTL: consecutive lpns land on different dies.
        let w0 = d.write_page(Picos::ZERO, 0, &page);
        let w1 = d.write_page(Picos::ZERO, 1, &page);
        // Both programs overlap; the second is delayed only by the bus.
        assert!(w1.end < w0.end + Picos::from_us(50), "w0={w0:?} w1={w1:?}");
    }

    #[test]
    fn sustained_rewrites_trigger_gc_with_time_cost() {
        let mut d = dev(CellKind::Slc);
        let page = vec![2; d.page_bytes() as usize];
        let mut t = Picos::ZERO;
        for _ in 0..600 {
            let a = d.write_page(t, 1, &page);
            t = a.end;
        }
        assert!(d.stats().erases > 0);
        assert!(d.ftl_stats().write_amplification() >= 1.0);
        assert!(d.energy().energy_of("flash.erase").as_pj() > 0.0);
    }

    #[test]
    fn preload_is_functional_only() {
        let mut d = dev(CellKind::Mlc);
        let page = vec![3; d.page_bytes() as usize];
        d.preload(4, &page);
        let (_, back) = d.read_page(Picos::ZERO, 4);
        assert_eq!(back.unwrap(), page);
    }

    #[test]
    #[should_panic(expected = "page-granular")]
    fn partial_page_write_rejected() {
        let mut d = dev(CellKind::Slc);
        d.write_page(Picos::ZERO, 0, &[1, 2, 3]);
    }
}
