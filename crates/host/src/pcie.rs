//! PCIe link timing.
//!
//! The paper's testbed connects the accelerator and the SSD "through two
//! different PCIe slots" \[17\]; every byte between them crosses at least
//! one link (two, when the host mediates).

use sim_core::energy::{EnergyBook, Joules};
use sim_core::snapshot::{check_config, check_counter};
use sim_core::time::Picos;
use sim_core::timeline::Timeline;

/// Energy per byte crossing the link (SerDes + switch).
const E_PER_BYTE: Joules = Joules::from_pj(35);

/// Link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcieParams {
    /// Effective payload bandwidth in bytes/second.
    pub bytes_per_sec: u64,
    /// Per-transaction latency (TLP round trip + root-complex work).
    pub latency: Picos,
    /// DMA descriptor setup per transfer.
    pub dma_setup: Picos,
}

util::json_struct!(PcieParams {
    bytes_per_sec,
    latency,
    dma_setup
});

impl Default for PcieParams {
    fn default() -> Self {
        PcieParams {
            bytes_per_sec: 3_200_000_000, // Gen3 x4 effective
            latency: Picos::from_ns(900),
            dma_setup: Picos::from_ns(700),
        }
    }
}

/// One PCIe link with occupancy tracking.
///
/// # Examples
///
/// ```
/// use host::PcieLink;
/// use sim_core::Picos;
///
/// let mut link = PcieLink::new(Default::default());
/// let a = link.dma(Picos::ZERO, 1 << 20); // 1 MiB DMA
/// assert!(a.end > Picos::from_us(300));
/// ```
#[derive(Debug, Clone)]
pub struct PcieLink {
    params: PcieParams,
    lanes: Timeline,
    energy: EnergyBook,
    transfers: u64,
}

util::json_struct!(PcieLink {
    params,
    lanes,
    energy,
    transfers
});

impl PcieLink {
    /// Creates a link.
    pub fn new(params: PcieParams) -> Self {
        PcieLink {
            params,
            lanes: Timeline::new(),
            energy: EnergyBook::new(),
            transfers: 0,
        }
    }

    /// The parameters.
    pub fn params(&self) -> &PcieParams {
        &self.params
    }

    /// Checks a decoded link against `built`, the one its
    /// configuration builds: the same `params` and counters under their
    /// ceilings.
    ///
    /// # Errors
    ///
    /// Names the first field that disagrees.
    pub fn check_shape(&self, built: &PcieLink) -> Result<(), String> {
        check_config("params", &self.params, &built.params)?;
        self.lanes.check().map_err(|e| format!("lanes.{e}"))?;
        self.energy.check().map_err(|e| format!("energy.{e}"))?;
        check_counter("transfers", self.transfers)
    }

    /// Completed transfers.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Energy ledger.
    pub fn energy(&self) -> &EnergyBook {
        &self.energy
    }

    /// Performs a DMA transfer of `bytes`, returning its span.
    pub fn dma(&mut self, at: Picos, bytes: u64) -> sim_core::Access {
        let xfer = Picos::from_ps(bytes * 1_000_000_000_000 / self.params.bytes_per_sec);
        let dur = self.params.dma_setup + self.params.latency + xfer;
        let (start, end) = self.lanes.reserve_span(at, dur);
        self.energy.charge("pcie.xfer", E_PER_BYTE.scaled(bytes));
        self.transfers += 1;
        sim_core::Access { start, end }
    }

    /// A short message (doorbell, interrupt, completion): latency only.
    pub fn message(&mut self, at: Picos) -> sim_core::Access {
        let (start, end) = self.lanes.reserve_span(at, self.params.latency);
        self.energy.charge("pcie.msg", Joules::from_pj(500));
        sim_core::Access { start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_time_is_setup_plus_bandwidth() {
        let mut l = PcieLink::new(PcieParams::default());
        let a = l.dma(Picos::ZERO, 3_200_000); // 1 ms worth of payload
        assert!(a.end >= Picos::from_us(1_000));
        assert!(a.end < Picos::from_us(1_010));
    }

    #[test]
    fn transfers_serialize_on_the_link() {
        let mut l = PcieLink::new(PcieParams::default());
        let a = l.dma(Picos::ZERO, 1 << 20);
        let b = l.dma(Picos::ZERO, 1 << 20);
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn messages_are_cheap() {
        let mut l = PcieLink::new(PcieParams::default());
        let m = l.message(Picos::ZERO);
        assert_eq!(m.end, Picos::from_ns(900));
    }

    #[test]
    fn energy_scales_with_bytes() {
        let mut l = PcieLink::new(PcieParams::default());
        l.dma(Picos::ZERO, 1000);
        assert_eq!(l.energy().energy_of("pcie.xfer"), E_PER_BYTE.scaled(1000));
    }
}
