//! The firmware-managed baseline ("DRAM-less (firmware)", Figs. 7 & 15).
//!
//! §VI: "'DRAM-less (firmware)' … replaces the hardware automated memory
//! control logic with traditional SSD firmware, used in block storage
//! devices. The SSD firmware is implemented on a 3-core 500 MHz embedded
//! ARM CPU, similar to the controllers of commercial SSDs."
//!
//! §III-B observes that "the conventional firmware can take longer
//! execution time than PRAM access latency" and that requests "have to be
//! serially processed by the traditional firmware, which suffers from
//! long delay". [`FirmwareController`] models exactly that: every request
//! first executes a firmware handler on one of the embedded cores (FTL
//! lookup, request parsing, completion bookkeeping), then flows through
//! the same PRAM datapath as the hardware-automated controller.

use crate::controller::PramController;
use sim_core::energy::{EnergyBook, Watts};
use sim_core::fault::FaultCounters;
use sim_core::mem::{Access, MemoryBackend};
use sim_core::probe::Probe;
use sim_core::snapshot::{check_config, check_counter, SnapshotError, StateImage};
use sim_core::time::{Freq, Picos};
use sim_core::timeline::TimelineBank;
use util::telemetry::MetricSet;

/// Firmware execution-cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirmwareParams {
    /// Embedded cores available to run request handlers.
    pub cores: usize,
    /// Core clock.
    pub clock: Freq,
    /// Instructions executed per read request (parse, map, issue,
    /// complete).
    pub instructions_per_read: u64,
    /// Instructions per write request (adds buffer management and
    /// wear-accounting work).
    pub instructions_per_write: u64,
    /// Active power of one busy core.
    pub core_power: Watts,
}

util::json_struct!(FirmwareParams {
    cores,
    clock,
    instructions_per_read,
    instructions_per_write,
    core_power,
});

impl Default for FirmwareParams {
    fn default() -> Self {
        FirmwareParams {
            cores: 3,
            clock: Freq::from_mhz(500),
            instructions_per_read: 750,
            instructions_per_write: 1_100,
            core_power: Watts::from_mw(450.0),
        }
    }
}

impl FirmwareParams {
    /// Firmware service time of one read request.
    pub fn read_exec(&self) -> Picos {
        self.clock.cycles_to_time(self.instructions_per_read)
    }

    /// Firmware service time of one write request.
    pub fn write_exec(&self) -> Picos {
        self.clock.cycles_to_time(self.instructions_per_write)
    }
}

/// The same PRAM subsystem fronted by SSD-style firmware.
#[derive(Debug, Clone)]
pub struct FirmwareController {
    inner: PramController,
    params: FirmwareParams,
    cores: TimelineBank,
    energy: EnergyBook,
    requests: u64,
}

impl FirmwareController {
    /// Wraps a PRAM controller behind the firmware cores.
    pub fn new(inner: PramController, params: FirmwareParams) -> Self {
        FirmwareController {
            cores: TimelineBank::new(params.cores),
            inner,
            params,
            energy: EnergyBook::new(),
            requests: 0,
        }
    }

    /// The parameters in effect.
    pub fn params(&self) -> &FirmwareParams {
        &self.params
    }

    /// Requests handled so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The wrapped hardware datapath (for stats inspection).
    pub fn inner(&self) -> &PramController {
        &self.inner
    }

    /// Dispatches the firmware handler on the earliest-free core.
    fn run_handler(&mut self, at: Picos, exec: Picos) -> Picos {
        let core = self.cores.first_free(at);
        let start = self.cores.get_mut(core).reserve(at, exec);
        self.energy
            .charge_power("fw.cpu", self.params.core_power, exec);
        self.requests += 1;
        start + exec
    }
}

/// Image tag for [`FirmwareController`] snapshots.
const FW_KIND: &str = "pram-ctrl/firmware";
/// Schema version of [`FW_KIND`] images.
const FW_VERSION: u32 = 1;

impl MemoryBackend for FirmwareController {
    fn read(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        let fw_done = self.run_handler(at, self.params.read_exec());
        let a = self.inner.read(fw_done, addr, len);
        Access {
            start: at,
            end: a.end,
        }
    }

    fn write(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        let fw_done = self.run_handler(at, self.params.write_exec());
        let a = self.inner.write(fw_done, addr, len);
        Access {
            start: at,
            end: a.end,
        }
    }

    fn announce_overwrites(&mut self, at: Picos, addrs: &[u64]) {
        self.inner.announce_overwrites(at, addrs);
    }

    fn energy(&self) -> EnergyBook {
        let mut book = self.energy.clone();
        book.merge(&self.inner.energy());
        book
    }

    fn label(&self) -> &'static str {
        "pram-ctrl/firmware"
    }

    fn set_probe(&mut self, probe: Probe) {
        self.inner.set_probe(probe);
    }

    fn collect_metrics(&self, out: &mut MetricSet) {
        out.add("fw.requests", self.requests);
        self.inner.collect_metrics(out);
    }

    fn collect_faults(&self, out: &mut FaultCounters) {
        self.inner.collect_faults(out);
    }

    fn snapshot_state(&self) -> Result<StateImage, SnapshotError> {
        use util::json::ToJson;
        let data = util::json::Json::Obj(vec![
            ("inner".to_string(), self.inner.snapshot_state()?.to_json()),
            ("params".to_string(), self.params.to_json()),
            ("cores".to_string(), self.cores.to_json()),
            ("energy".to_string(), self.energy.to_json()),
            ("requests".to_string(), self.requests.to_json()),
        ]);
        Ok(StateImage::new(FW_KIND, FW_VERSION, data))
    }

    /// Checks the firmware's own fields against the built ones (the
    /// same `params`, one timeline per core, counters under their
    /// ceilings), restores the controller, then takes the fields.
    fn restore_state(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        let data = image.expect(FW_KIND, FW_VERSION)?;
        let m = |e| SnapshotError::malformed(FW_KIND, e);
        let mut f = util::json::Fields::new(data);
        let inner_img: StateImage = f.get("inner").map_err(m)?;
        let params: FirmwareParams = f.get("params").map_err(m)?;
        let cores: TimelineBank = f.get("cores").map_err(m)?;
        let energy: EnergyBook = f.get("energy").map_err(m)?;
        let requests: u64 = f.get("requests").map_err(m)?;
        f.finish().map_err(m)?;
        let shape = |e: String| SnapshotError::shape(FW_KIND, e);
        check_config("params", &params, &self.params).map_err(shape)?;
        cores
            .check(params.cores)
            .map_err(|e| shape(format!("cores.{e}")))?;
        energy.check().map_err(|e| shape(format!("energy.{e}")))?;
        check_counter("requests", requests).map_err(shape)?;
        self.inner.restore_state(&inner_img)?;
        (self.cores, self.energy, self.requests) = (cores, energy, requests);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::SubsystemConfig;
    use crate::sched::SchedulerKind;

    fn fw() -> FirmwareController {
        let inner = PramController::new(SubsystemConfig::paper(SchedulerKind::Final, 5));
        FirmwareController::new(inner, FirmwareParams::default())
    }

    #[test]
    fn firmware_adds_execution_latency() {
        let mut f = fw();
        let mut h = PramController::new(SubsystemConfig::paper(SchedulerKind::Final, 5));
        let rf = f.read(Picos::ZERO, 0, 512);
        let rh = h.read(Picos::ZERO, 0, 512);
        // Firmware path is slower by roughly the handler execution time.
        let overhead = rf.end - rh.end;
        assert!(
            overhead >= f.params().read_exec() / 2,
            "firmware overhead {overhead} too small"
        );
    }

    #[test]
    fn firmware_exec_time_exceeds_pram_read_latency() {
        // §III-B's key observation.
        let p = FirmwareParams::default();
        assert!(p.read_exec() > Picos::from_ns(200));
        assert!(p.write_exec() > p.read_exec());
    }

    #[test]
    fn three_cores_saturate_under_load() {
        let mut f = fw();
        // Issue 12 concurrent reads at t=0: with 3 cores and ~2.2 us
        // handlers, the last handler cannot start before ~6.6 us.
        let mut last = Picos::ZERO;
        for i in 0..12u64 {
            let a = f.read(Picos::ZERO, i * 512, 512);
            last = last.max(a.end);
        }
        let exec = f.params().read_exec();
        assert!(last >= exec * 4, "12 reqs / 3 cores = 4 serial handlers");
        assert_eq!(f.requests(), 12);
    }

    #[test]
    fn energy_charges_firmware_cpu() {
        let mut f = fw();
        f.read(Picos::ZERO, 0, 512);
        f.write(Picos::from_us(10), 0, 512);
        let e = f.energy();
        assert!(e.energy_of("fw.cpu").as_pj() > 0.0);
        // Device energy flows through too.
        assert!(e.energy_of("pram.sense").as_pj() > 0.0);
    }

    #[test]
    fn functional_path_still_works() {
        let mut f = fw();
        let w = f.write(Picos::ZERO, 2048, 64);
        let r = f.read(w.end, 2048, 64);
        assert!(r.end > w.end);
    }
}
