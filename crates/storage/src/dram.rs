//! A simple DRAM timing/energy model.
//!
//! Used for the accelerator-internal DRAM of conventional designs and for
//! SSD buffer caches. Not the point of the paper — DRAM-less removes it —
//! so the model is deliberately simple: fixed access latency plus a
//! bandwidth-limited transfer term, with per-byte access energy and
//! standby power folded into per-access charges.

use sim_core::energy::{EnergyBook, Joules};
use sim_core::mem::{Access, MemoryBackend};
use sim_core::snapshot::{check_config, check_counter, SnapshotError, StateImage};
use sim_core::time::Picos;
use sim_core::timeline::Timeline;

/// DRAM access energy per byte moved (row activation amortized).
const E_PER_BYTE: Joules = Joules::from_pj(20);

/// Construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramParams {
    /// Random-access latency (CAS + controller).
    pub latency: Picos,
    /// Sustained bandwidth in bytes/second.
    pub bytes_per_sec: u64,
    /// Capacity in bytes (requests beyond it panic — the capacity
    /// pressure of real DRAM is modeled by the configs, not silently
    /// wrapped here).
    pub capacity: u64,
}

util::json_struct!(DramParams {
    latency,
    bytes_per_sec,
    capacity
});

impl Default for DramParams {
    fn default() -> Self {
        DramParams {
            latency: Picos::from_ns(60),
            bytes_per_sec: 12_800_000_000, // DDR3-1600 class
            capacity: 1 << 30,             // the paper's 1 GB buffer
        }
    }
}

/// The DRAM device.
///
/// # Examples
///
/// ```
/// use storage::DramModel;
/// use sim_core::{MemoryBackend, Picos};
///
/// let mut d = DramModel::new(Default::default());
/// let a = d.read(Picos::ZERO, 0, 64);
/// assert!(a.end >= Picos::from_ns(60));
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    params: DramParams,
    bus: Timeline,
    energy: EnergyBook,
    accesses: u64,
}

util::json_struct!(DramModel {
    params,
    bus,
    energy,
    accesses
});

/// Image tag for [`DramModel`] snapshots.
const DRAM_KIND: &str = "storage/dram";

impl DramModel {
    /// Creates a DRAM with the given parameters.
    pub fn new(params: DramParams) -> Self {
        DramModel {
            params,
            bus: Timeline::new(),
            energy: EnergyBook::new(),
            accesses: 0,
        }
    }

    /// The parameters.
    pub fn params(&self) -> &DramParams {
        &self.params
    }

    /// Total accesses serviced.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Checks a decoded image against `built`, the DRAM its
    /// configuration builds: the same `params` and counters under their
    /// ceilings.
    ///
    /// # Errors
    ///
    /// Names the first field that disagrees.
    pub(crate) fn check_shape(&self, built: &DramModel) -> Result<(), String> {
        check_config("params", &self.params, &built.params)?;
        self.bus.check().map_err(|e| format!("bus.{e}"))?;
        self.energy.check().map_err(|e| format!("energy.{e}"))?;
        check_counter("accesses", self.accesses)
    }

    fn access(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        assert!(
            addr + len as u64 <= self.params.capacity,
            "DRAM access beyond capacity: {addr:#x}+{len}"
        );
        let xfer = Picos::from_ps(len as u64 * 1_000_000_000_000 / self.params.bytes_per_sec);
        let (start, end) = self.bus.reserve_span(at + self.params.latency, xfer);
        self.energy
            .charge("dram.access", E_PER_BYTE.scaled(len as u64));
        self.accesses += 1;
        Access {
            start: start - self.params.latency,
            end,
        }
    }
}

impl MemoryBackend for DramModel {
    fn read(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        self.access(at, addr, len)
    }

    fn write(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        self.access(at, addr, len)
    }

    fn energy(&self) -> EnergyBook {
        self.energy.clone()
    }

    fn label(&self) -> &'static str {
        "dram"
    }

    fn snapshot_state(&self) -> Result<StateImage, SnapshotError> {
        Ok(StateImage::of(DRAM_KIND, 1, self))
    }

    fn restore_state(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        let dram: DramModel = image.decode(DRAM_KIND, 1)?;
        dram.check_shape(self)
            .map_err(|e| SnapshotError::shape(DRAM_KIND, e))?;
        *self = dram;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_plus_bandwidth() {
        let mut d = DramModel::new(DramParams::default());
        let a = d.read(Picos::ZERO, 0, 128);
        // 60 ns + 128 B / 12.8 GB/s = 60 + 10 ns.
        assert_eq!(a.end, Picos::from_ns(70));
    }

    #[test]
    fn concurrent_accesses_contend_on_the_bus() {
        let mut d = DramModel::new(DramParams::default());
        let big = 1 << 20;
        let a = d.read(Picos::ZERO, 0, big);
        let b = d.read(Picos::ZERO, big as u64, big);
        assert!(b.end > a.end, "second access queues behind the first");
    }

    #[test]
    fn energy_scales_with_bytes() {
        let mut d = DramModel::new(DramParams::default());
        d.read(Picos::ZERO, 0, 100);
        let e1 = d.energy().total();
        d.write(Picos::from_us(1), 0, 100);
        assert_eq!(d.energy().total(), e1 + e1);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn capacity_enforced() {
        let mut d = DramModel::new(DramParams {
            capacity: 1024,
            ..Default::default()
        });
        d.read(Picos::ZERO, 1000, 100);
    }
}
