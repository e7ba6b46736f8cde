//! The host software storage-stack cost model.
//!
//! §III-A: "a CPU is required to frequently intervene to move the data
//! among multiple user applications and OS modules. As the hardware
//! accelerator and SSD devices employ different software stacks, such
//! interventions introduce many user/kernel mode switches and redundant
//! data copies, which result in the waste of many CPU cycles."
//!
//! [`HostStack`] charges those cycles: per-request syscall/filesystem/
//! driver work, mode switches, and bandwidth-limited memory copies — plus
//! the energy of a server-class CPU doing it.

use sim_core::energy::{EnergyBook, Watts};
use sim_core::snapshot::{check_config, check_counter};
use sim_core::time::Picos;
use sim_core::timeline::TimelineBank;

/// Stack cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostStackParams {
    /// Entering + leaving the kernel once.
    pub mode_switch: Picos,
    /// Syscall dispatch + VFS + filesystem + block layer per request.
    pub fs_request: Picos,
    /// NVMe driver submission/completion work per request.
    pub driver_request: Picos,
    /// Interrupt handling per completion.
    pub interrupt: Picos,
    /// Memcpy bandwidth (one copy) in bytes/second.
    pub copy_bytes_per_sec: u64,
    /// How many times each byte is copied on the host-mediated path
    /// (page cache → user buffer → pinned DMA buffer = 2).
    pub copies: u32,
    /// Request size the runtime issues to the SSD.
    pub io_request_bytes: u64,
    /// Active CPU power while executing stack code or copying.
    pub cpu_power: Watts,
    /// Host cores available to run storage-stack work concurrently.
    pub cores: usize,
}

util::json_struct!(HostStackParams {
    mode_switch,
    fs_request,
    driver_request,
    interrupt,
    copy_bytes_per_sec,
    copies,
    io_request_bytes,
    cpu_power,
    cores,
});

impl Default for HostStackParams {
    fn default() -> Self {
        HostStackParams {
            mode_switch: Picos::from_ns(800),
            fs_request: Picos::from_ns(1_500),
            driver_request: Picos::from_ns(1_000),
            interrupt: Picos::from_ns(700),
            copy_bytes_per_sec: 8_000_000_000,
            copies: 2,
            io_request_bytes: 128 * 1024,
            cpu_power: Watts::from_w(18.0),
            cores: 4,
        }
    }
}

impl HostStackParams {
    /// Default stack costs with an explicit I/O request size — how the
    /// system composer sets demand-paging vs. bulk-staging granularity.
    pub fn with_request_bytes(io_request_bytes: u64) -> Self {
        HostStackParams {
            io_request_bytes,
            ..Default::default()
        }
    }
}

/// The host CPU executing storage-stack work, with occupancy + energy.
#[derive(Debug, Clone)]
pub struct HostStack {
    params: HostStackParams,
    cpu: TimelineBank,
    energy: EnergyBook,
    requests: u64,
    bytes_copied: u64,
}

util::json_struct!(HostStack {
    params,
    cpu,
    energy,
    requests,
    bytes_copied
});

impl HostStack {
    /// Creates the stack model.
    pub fn new(params: HostStackParams) -> Self {
        HostStack {
            cpu: TimelineBank::new(params.cores.max(1)),
            params,
            energy: EnergyBook::new(),
            requests: 0,
            bytes_copied: 0,
        }
    }

    /// The parameters.
    pub fn params(&self) -> &HostStackParams {
        &self.params
    }

    /// Checks a decoded stack against `built`, the one its
    /// configuration builds: the same `params`, one timeline per core
    /// and counters under their ceilings.
    ///
    /// # Errors
    ///
    /// Names the first field that disagrees.
    pub fn check_shape(&self, built: &HostStack) -> Result<(), String> {
        check_config("params", &self.params, &built.params)?;
        self.cpu
            .check(built.cpu.len())
            .map_err(|e| format!("cpu.{e}"))?;
        self.energy.check().map_err(|e| format!("energy.{e}"))?;
        check_counter("requests", self.requests)?;
        check_counter("bytes_copied", self.bytes_copied)
    }

    /// `(requests, bytes_copied)` so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.requests, self.bytes_copied)
    }

    /// Energy ledger.
    pub fn energy(&self) -> &EnergyBook {
        &self.energy
    }

    /// Total CPU busy time consumed by the stack (summed over cores).
    pub fn cpu_busy(&self) -> Picos {
        self.cpu.busy_total()
    }

    fn reserve(&mut self, at: Picos, dur: Picos) -> (Picos, Picos) {
        let core = self.cpu.first_free(at);
        self.cpu.get_mut(core).reserve_span(at, dur)
    }

    /// Charges the per-request software path (syscall, filesystem, driver,
    /// two mode switches, completion interrupt). Returns `(start, end)`
    /// of the CPU work.
    pub fn request_overhead(&mut self, at: Picos) -> (Picos, Picos) {
        let dur = self.params.mode_switch * 2
            + self.params.fs_request
            + self.params.driver_request
            + self.params.interrupt;
        let (s, e) = self.reserve(at, dur);
        self.energy
            .charge_power("host.stack", self.params.cpu_power, dur);
        self.requests += 1;
        (s, e)
    }

    /// Charges `copies` bandwidth-limited memcpy passes over `bytes`.
    pub fn copy(&mut self, at: Picos, bytes: u64) -> (Picos, Picos) {
        let one = Picos::from_ps(bytes * 1_000_000_000_000 / self.params.copy_bytes_per_sec);
        let dur = one * self.params.copies as u64;
        let (s, e) = self.reserve(at, dur);
        self.energy
            .charge_power("host.copy", self.params.cpu_power, dur);
        self.bytes_copied += bytes * self.params.copies as u64;
        (s, e)
    }

    /// Deserialization work turning file bytes into objects (§III-A
    /// "deserializes them as a representation of objects"): one more pass
    /// over the data at copy bandwidth.
    pub fn deserialize(&mut self, at: Picos, bytes: u64) -> (Picos, Picos) {
        let dur = Picos::from_ps(bytes * 1_000_000_000_000 / self.params.copy_bytes_per_sec);
        let (s, e) = self.reserve(at, dur);
        self.energy
            .charge_power("host.deserialize", self.params.cpu_power, dur);
        (s, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_overhead_is_microseconds_of_cpu() {
        let mut h = HostStack::new(HostStackParams::default());
        let (s, e) = h.request_overhead(Picos::ZERO);
        // 2×0.8 + 1.5 + 1.0 + 0.7 = 4.8 us.
        assert_eq!(e - s, Picos::from_ns(4_800));
        assert_eq!(h.counters().0, 1);
    }

    #[test]
    fn copies_pay_double_bandwidth() {
        let mut h = HostStack::new(HostStackParams::default());
        let (s, e) = h.copy(Picos::ZERO, 8_000_000); // 1 ms per pass
        assert_eq!(e - s, Picos::from_ms(2));
        assert_eq!(h.counters().1, 16_000_000);
    }

    #[test]
    fn stack_work_serializes_once_cores_are_busy() {
        let mut h = HostStack::new(HostStackParams {
            cores: 2,
            ..Default::default()
        });
        let (_, e1) = h.request_overhead(Picos::ZERO);
        let (s2, _) = h.request_overhead(Picos::ZERO); // second core
        assert_eq!(s2, Picos::ZERO);
        let (s3, _) = h.request_overhead(Picos::ZERO); // queues
        assert_eq!(s3, e1);
    }

    #[test]
    fn energy_attributed_by_activity() {
        let mut h = HostStack::new(HostStackParams::default());
        h.request_overhead(Picos::ZERO);
        h.copy(Picos::from_ms(1), 1 << 20);
        h.deserialize(Picos::from_ms(10), 1 << 20);
        let e = h.energy();
        assert!(e.energy_of("host.stack").as_pj() > 0.0);
        assert!(e.energy_of("host.copy").as_pj() > 0.0);
        assert!(e.energy_of("host.deserialize").as_pj() > 0.0);
        // Copying a MiB twice dwarfs one request's dispatch work.
        assert!(e.energy_of("host.copy") > e.energy_of("host.stack"));
    }
}
