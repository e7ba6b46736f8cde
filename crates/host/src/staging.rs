//! Data staging between the SSD and the accelerator (Figure 5a).
//!
//! Two paths:
//!
//! * [`StagingPath::HostMediated`] (*Hetero*): for every I/O request the
//!   host pays the storage-stack software path, reads from the SSD into
//!   the page cache, copies to the user buffer, deserializes, copies into
//!   a pinned DMA buffer, and DMAs over PCIe to the accelerator;
//! * [`StagingPath::P2pDma`] (*Heterodirect*, Morpheus/NVMMU-style
//!   \[13\], \[14\]): the host only submits descriptors; data moves
//!   SSD → accelerator directly across the PCIe switch.

use crate::pcie::PcieLink;
use crate::stack::HostStack;
use sim_core::energy::EnergyBook;
use sim_core::mem::MemoryBackend;
use sim_core::probe::{AttrScope, AttrSpan, Cause, Probe};
use sim_core::snapshot::{check_config, SnapshotError, StateImage};
use sim_core::time::Picos;
use util::telemetry::{MetricSet, Track};

/// Which staging datapath a heterogeneous system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagingPath {
    /// SSD → host DRAM (2 copies + deserialize) → PCIe → accelerator.
    HostMediated,
    /// SSD → PCIe switch → accelerator, zero host copies.
    P2pDma,
}

util::json_enum!(StagingPath {
    HostMediated,
    P2pDma
});

impl StagingPath {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            StagingPath::HostMediated => "host-mediated",
            StagingPath::P2pDma => "p2p-dma",
        }
    }
}

/// The outcome of moving one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagingReport {
    /// When the transfer finished.
    pub done: Picos,
    /// Bytes moved.
    pub bytes: u64,
    /// I/O requests issued to the SSD.
    pub requests: u64,
}

util::json_struct!(StagingReport {
    done,
    bytes,
    requests
});

/// The staging engine: owns the host stack and both PCIe links.
#[derive(Debug)]
pub struct Stager {
    /// The host software stack.
    pub stack: HostStack,
    /// Host/SSD link (also carries P2P traffic to the switch).
    pub link_ssd: PcieLink,
    /// Host/accelerator link.
    pub link_accel: PcieLink,
    path: StagingPath,
    probe: Probe,
}

/// The staging datapath's single trace lane.
const STAGING_TRACK: Track = Track::new("staging", 0);

/// Image tag for [`Stager`] snapshots.
const STAGING_KIND: &str = "host/staging";
/// Schema version of [`STAGING_KIND`] images.
const STAGING_VERSION: u32 = 1;

impl Stager {
    /// Creates a stager over `path` with default host parameters.
    pub fn new(path: StagingPath) -> Self {
        Self::with_stack(path, Default::default())
    }

    /// Creates a stager with explicit host-stack parameters (e.g. a
    /// scaled I/O request size).
    pub fn with_stack(path: StagingPath, stack: crate::stack::HostStackParams) -> Self {
        Stager {
            stack: HostStack::new(stack),
            link_ssd: PcieLink::new(Default::default()),
            link_accel: PcieLink::new(Default::default()),
            path,
            probe: Probe::disabled(),
        }
    }

    /// The configured path.
    pub fn path(&self) -> StagingPath {
        self.path
    }

    /// Serializes the stack, both links and the path (the probe is a
    /// runtime attachment and stays out).
    pub fn snapshot_state(&self) -> StateImage {
        use util::json::ToJson;
        let data = util::json::Json::Obj(vec![
            ("stack".to_string(), self.stack.to_json()),
            ("link_ssd".to_string(), self.link_ssd.to_json()),
            ("link_accel".to_string(), self.link_accel.to_json()),
            ("path".to_string(), self.path.to_json()),
        ]);
        StateImage::new(STAGING_KIND, STAGING_VERSION, data)
    }

    /// Restores state captured by [`Stager::snapshot_state`] on an
    /// identically built stager.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on kind/version mismatch, a malformed
    /// payload, or a path, stack or link this stager was not built with
    /// ([`HostStack::check_shape`], [`PcieLink::check_shape`]), naming
    /// the field.
    pub fn restore_state(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        let data = image.expect(STAGING_KIND, STAGING_VERSION)?;
        let m = |e| SnapshotError::malformed(STAGING_KIND, e);
        let mut f = util::json::Fields::new(data);
        let stack: HostStack = f.get("stack").map_err(m)?;
        let link_ssd: PcieLink = f.get("link_ssd").map_err(m)?;
        let link_accel: PcieLink = f.get("link_accel").map_err(m)?;
        let path: StagingPath = f.get("path").map_err(m)?;
        f.finish().map_err(m)?;
        let shape = |e: String| SnapshotError::shape(STAGING_KIND, e);
        check_config("path", &path, &self.path).map_err(shape)?;
        stack
            .check_shape(&self.stack)
            .map_err(|e| shape(format!("stack.{e}")))?;
        link_ssd
            .check_shape(&self.link_ssd)
            .map_err(|e| shape(format!("link_ssd.{e}")))?;
        link_accel
            .check_shape(&self.link_accel)
            .map_err(|e| shape(format!("link_accel.{e}")))?;
        (self.stack, self.link_ssd, self.link_accel) = (stack, link_ssd, link_accel);
        Ok(())
    }

    /// Installs a telemetry probe; each chunked I/O request becomes a
    /// span on the `staging/0` lane.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Contributes host-side metrics (CPU busy time) into `out`.
    pub fn collect_metrics(&self, out: &mut MetricSet) {
        out.add("host.cpu_busy_ns", self.stack.cpu_busy().as_ps() / 1_000);
    }

    /// Moves `bytes` from `ssd` (starting at `addr`) into the accelerator
    /// memory, beginning at `at`.
    pub fn stage_in(
        &mut self,
        at: Picos,
        ssd: &mut dyn MemoryBackend,
        addr: u64,
        bytes: u64,
    ) -> StagingReport {
        self.stage(at, ssd, addr, bytes, true)
    }

    /// Moves `bytes` of results from the accelerator back to `ssd`.
    pub fn stage_out(
        &mut self,
        at: Picos,
        ssd: &mut dyn MemoryBackend,
        addr: u64,
        bytes: u64,
    ) -> StagingReport {
        self.stage(at, ssd, addr, bytes, false)
    }

    fn stage(
        &mut self,
        at: Picos,
        ssd: &mut dyn MemoryBackend,
        addr: u64,
        bytes: u64,
        inbound: bool,
    ) -> StagingReport {
        assert!(bytes > 0, "empty staging transfer");
        let attr_on = self.probe.attr_on();
        let scope = if inbound {
            AttrScope::StageIn
        } else {
            AttrScope::StageOut
        };
        let chunk = self.stack.params().io_request_bytes;
        let mut t = at;
        let mut requests = 0;
        let mut off = 0u64;
        while off < bytes {
            let n = chunk.min(bytes - off);
            let chunk_start = t;
            // Each chunked I/O request is one attributed unit; tagging
            // before the SSD call makes the device's own record share
            // this chunk's (scope, index).
            if attr_on {
                self.probe.attr_tag_next(scope);
            }
            let mut span = if attr_on {
                Some(AttrSpan::new(chunk_start))
            } else {
                None
            };
            match self.path {
                StagingPath::HostMediated => {
                    // Submission path through the kernel.
                    let (_, sw_done) = self.stack.request_overhead(t);
                    // Media access.
                    let io = if inbound {
                        ssd.read(sw_done, addr + off, n as u32)
                    } else {
                        ssd.write(sw_done, addr + off, n as u32)
                    };
                    // Page cache → user → pinned buffer (+deserialize when
                    // loading input objects).
                    let (_, copied) = self.stack.copy(io.end, n);
                    let t2 = if inbound {
                        self.stack.deserialize(copied, n).1
                    } else {
                        copied
                    };
                    // DMA across the accelerator link.
                    let dma = self.link_accel.dma(t2, n);
                    if let Some(sp) = span.as_mut() {
                        sp.advance(Cause::SoftwareStack, sw_done);
                        sp.advance(Cause::Media, io.end);
                        sp.advance(Cause::SoftwareStack, t2);
                        sp.advance(Cause::Dma, dma.end);
                    }
                    t = dma.end;
                }
                StagingPath::P2pDma => {
                    // Host only rings a doorbell; data crosses the switch
                    // once.
                    let bell = self.link_ssd.message(t);
                    let io = if inbound {
                        ssd.read(bell.end, addr + off, n as u32)
                    } else {
                        ssd.write(bell.end, addr + off, n as u32)
                    };
                    let dma = self.link_accel.dma(io.end, n);
                    if let Some(sp) = span.as_mut() {
                        sp.advance(Cause::SoftwareStack, bell.end);
                        sp.advance(Cause::Media, io.end);
                        sp.advance(Cause::Dma, dma.end);
                    }
                    t = dma.end;
                }
            }
            if let Some(sp) = &span {
                self.probe.attr_record("staging.chunk", sp);
            }
            self.probe.span_args(
                STAGING_TRACK,
                if inbound { "stage_in" } else { "stage_out" },
                chunk_start,
                t,
                &[("bytes", n)],
            );
            self.probe.latency("staging.request", t - chunk_start);
            self.probe.count("staging.requests", 1);
            self.probe.count("staging.bytes", n);
            requests += 1;
            off += n;
        }
        StagingReport {
            done: t,
            bytes,
            requests,
        }
    }

    /// Combined energy of stack + links.
    pub fn energy(&self) -> EnergyBook {
        let mut e = self.stack.energy().clone();
        e.merge(self.link_ssd.energy());
        e.merge(self.link_accel.energy());
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash::CellKind;
    use storage::ssd::{FlashSsd, SsdParams};

    fn ssd() -> FlashSsd {
        FlashSsd::new(SsdParams::tiny(CellKind::Mlc))
    }

    #[test]
    fn p2p_is_faster_than_host_mediated() {
        let bytes = 1u64 << 20;
        let mut host = Stager::new(StagingPath::HostMediated);
        let mut p2p = Stager::new(StagingPath::P2pDma);
        let mut ssd_a = ssd();
        let mut ssd_b = ssd();
        let ra = host.stage_in(Picos::ZERO, &mut ssd_a, 0, bytes);
        let rb = p2p.stage_in(Picos::ZERO, &mut ssd_b, 0, bytes);
        assert!(rb.done < ra.done, "p2p {:?} vs host {:?}", rb.done, ra.done);
        assert_eq!(ra.requests, rb.requests);
    }

    #[test]
    fn host_path_burns_cpu_p2p_does_not() {
        let bytes = 1u64 << 20;
        let mut host = Stager::new(StagingPath::HostMediated);
        let mut p2p = Stager::new(StagingPath::P2pDma);
        host.stage_in(Picos::ZERO, &mut ssd(), 0, bytes);
        p2p.stage_in(Picos::ZERO, &mut ssd(), 0, bytes);
        assert!(host.stack.cpu_busy() > Picos::from_us(100));
        assert_eq!(p2p.stack.cpu_busy(), Picos::ZERO);
    }

    #[test]
    fn staging_chunks_by_request_size() {
        let mut s = Stager::new(StagingPath::P2pDma);
        let r = s.stage_in(Picos::ZERO, &mut ssd(), 0, 300 * 1024);
        assert_eq!(r.requests, 3); // 128 KiB chunks
    }

    #[test]
    fn stage_out_writes_the_ssd() {
        let mut s = Stager::new(StagingPath::HostMediated);
        let mut dev = ssd();
        let r = s.stage_out(Picos::ZERO, &mut dev, 0, 64 * 1024);
        assert!(r.done > Picos::ZERO);
        assert!(dev.requests() > 0);
    }

    #[test]
    fn energy_includes_stack_and_links() {
        let mut s = Stager::new(StagingPath::HostMediated);
        s.stage_in(Picos::ZERO, &mut ssd(), 0, 1 << 20);
        let e = s.energy();
        assert!(e.energy_of("host.copy").as_pj() > 0.0);
        assert!(e.energy_of("pcie.xfer").as_pj() > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty staging transfer")]
    fn zero_bytes_rejected() {
        let mut s = Stager::new(StagingPath::P2pDma);
        s.stage_in(Picos::ZERO, &mut ssd(), 0, 0);
    }
}
