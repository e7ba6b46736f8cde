//! An NVMe-class flash SSD: flash device + 1 GB DRAM buffer + command
//! processing overhead.
//!
//! This is the external storage of *Hetero* and *Heterodirect* (the paper
//! uses an Intel SSD 750-class device \[16\] with MLC flash). The host (or
//! the peer-to-peer DMA engine) talks to it in block requests; internally
//! a DRAM buffer absorbs re-reads and coalesces writes.

use crate::cache::CachedStore;
use crate::dram::DramParams;
use flash::{CellKind, FlashDevice, FlashGeometry, FlashTiming};
use sim_core::energy::{EnergyBook, Watts};
use sim_core::fault::{domain, FaultCounters, FaultPlan};
use sim_core::mem::{Access, MemoryBackend};
use sim_core::probe::{AttrSpan, Cause, Probe};
use sim_core::snapshot::{check_config, check_counter, SnapshotError, StateImage};
use sim_core::time::Picos;
use sim_core::timeline::TimelineBank;
use util::rng::stream_unit;
use util::telemetry::{MetricSet, Track};

/// SSD construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdParams {
    /// Flash cell kind (Table I: Hetero uses MLC).
    pub kind: CellKind,
    /// Flash geometry.
    pub geometry: FlashGeometry,
    /// Internal DRAM buffer capacity in pages (paper: 1 GB).
    pub buffer_pages: usize,
    /// Controller command-processing time per request.
    pub command_overhead: Picos,
    /// Concurrent command contexts in the controller.
    pub queue_depth: usize,
}

util::json_struct!(SsdParams {
    kind,
    geometry,
    buffer_pages,
    command_overhead,
    queue_depth
});

impl SsdParams {
    /// The Table I external SSD scaled to the simulated page size: the
    /// accelerator-class geometry, a 64-page buffer and NVMe-class
    /// command processing. Pair with `FlashTiming::table1_scaled` so
    /// per-byte bandwidth stays at the Table I level.
    pub fn table1(kind: CellKind, page_bytes: u32) -> Self {
        SsdParams {
            kind,
            geometry: FlashGeometry::accelerator(page_bytes),
            buffer_pages: 64,
            command_overhead: Picos::from_us(3),
            queue_depth: 32,
        }
    }

    /// A small configuration for tests.
    pub fn tiny(kind: CellKind) -> Self {
        SsdParams {
            kind,
            geometry: FlashGeometry::tiny(),
            buffer_pages: 16,
            command_overhead: Picos::from_us(8),
            queue_depth: 4,
        }
    }
}

/// The SSD device.
///
/// # Examples
///
/// ```
/// use storage::ssd::{FlashSsd, SsdParams};
/// use flash::CellKind;
/// use sim_core::{MemoryBackend, Picos};
///
/// let mut ssd = FlashSsd::new(SsdParams::tiny(CellKind::Mlc));
/// let w = ssd.write(Picos::ZERO, 0, 4096);
/// let r = ssd.read(w.end, 0, 4096);
/// assert!(r.end > w.end);
/// ```
#[derive(Debug, Clone)]
pub struct FlashSsd {
    cache: CachedStore<FlashDevice>,
    params: SsdParams,
    /// Controller command contexts.
    contexts: TimelineBank,
    ctrl_energy: EnergyBook,
    requests: u64,
    /// Transient-read fault injection (when a plan is attached).
    faults: Option<SsdFaultState>,
    probe: Probe,
}

/// Runtime fault state: draws are stateless hashes of
/// `(seed, SSD_READ, request index, attempt)`, so outcomes are
/// independent of simulation order and monotone in the configured rate.
#[derive(Debug, Clone)]
struct SsdFaultState {
    seed: u64,
    rate: f64,
    max_replays: u32,
    counters: FaultCounters,
}

util::json_struct!(SsdFaultState {
    seed,
    rate,
    max_replays,
    counters
});

impl SsdFaultState {
    /// Checks decoded fault state against `built`'s plan (the same seed,
    /// rate and replay budget) and its counters against their ceilings.
    fn check(&self, built: &SsdFaultState) -> Result<(), String> {
        check_config("seed", &self.seed, &built.seed)?;
        check_config("rate", &self.rate, &built.rate)?;
        check_config("max_replays", &self.max_replays, &built.max_replays)?;
        self.counters.check().map_err(|e| format!("counters.{e}"))
    }
}

/// The SSD datapath's single trace lane.
const SSD_TRACK: Track = Track::new("ssd", 0);

impl FlashSsd {
    /// Builds the SSD with Table I flash timing.
    pub fn new(params: SsdParams) -> Self {
        Self::with_timing(params, FlashTiming::table1(params.kind))
    }

    /// Builds the SSD with explicit flash timing (scaled page sizes).
    pub fn with_timing(params: SsdParams, timing: FlashTiming) -> Self {
        let dev = FlashDevice::with_timing(params.geometry, params.kind, timing);
        FlashSsd {
            cache: CachedStore::new(dev, DramParams::default(), params.buffer_pages),
            contexts: TimelineBank::new(params.queue_depth),
            params,
            ctrl_energy: EnergyBook::new(),
            requests: 0,
            faults: None,
            probe: Probe::disabled(),
        }
    }

    /// Attaches a fault-injection plan. Transient read failures are
    /// replayed by the controller (bounded by the plan's retry budget)
    /// and cost time only — data is never lost.
    pub fn with_faults(mut self, plan: &FaultPlan) -> Self {
        self.faults = Some(SsdFaultState {
            seed: plan.seed,
            rate: plan.ssd.transient_read_rate.min(1.0),
            max_replays: plan.resilience.max_retries.max(1),
            counters: FaultCounters::default(),
        });
        self
    }

    /// The fault ledger, when a plan is attached.
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.faults.as_ref().map(|f| &f.counters)
    }

    /// The parameters.
    pub fn params(&self) -> &SsdParams {
        &self.params
    }

    /// Requests serviced.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Runs the controller front end, returning when a command context
    /// picked the request up (queueing resolved; command processing
    /// still ahead of it).
    fn admit(&mut self, at: Picos) -> Picos {
        self.requests += 1;
        let ctx = self.contexts.first_free(at);
        let start = self
            .contexts
            .get_mut(ctx)
            .reserve(at, self.params.command_overhead);
        self.ctrl_energy.charge_power(
            "ssd.ctrl",
            Watts::from_mw(500.0),
            self.params.command_overhead,
        );
        start
    }
}

/// Image tag for [`FlashSsd`] snapshots.
const SSD_KIND: &str = "storage/ssd";
/// Schema version of [`SSD_KIND`] images.
const SSD_VERSION: u32 = 1;

impl MemoryBackend for FlashSsd {
    fn read(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        let mut attr = if self.probe.attr_on() {
            Some(AttrSpan::new(at))
        } else {
            None
        };
        let start = self.admit(at);
        let t = start + self.params.command_overhead;
        let a = self.cache.read(t, addr, len);
        // Transient read failures: the controller replays the request
        // (command overhead + media time again) until a replay draw
        // comes back clean or the replay budget runs out, after which
        // the recovered data is returned anyway — never a wrong result.
        let mut end = a.end;
        if let Some(fs) = self.faults.as_mut() {
            let req = self.requests;
            if fs.rate > 0.0 && stream_unit(fs.seed, &[domain::SSD_READ, req, 0]) < fs.rate {
                fs.counters.injected += 1;
                fs.counters.ssd_transient_faults += 1;
                let media = a.end.saturating_sub(t);
                for attempt in 1..=u64::from(fs.max_replays) {
                    fs.counters.ssd_retries += 1;
                    end = end + self.params.command_overhead + media;
                    if stream_unit(fs.seed, &[domain::SSD_READ, req, attempt]) >= fs.rate {
                        break;
                    }
                    fs.counters.injected += 1;
                    fs.counters.ssd_transient_faults += 1;
                }
                fs.counters.retry_stall_ps += (end - a.end).as_ps();
            }
        }
        if let Some(sp) = attr.as_mut() {
            sp.advance(Cause::QueueWait, start);
            sp.advance(Cause::SoftwareStack, t);
            sp.advance(Cause::Media, a.end);
            sp.advance(Cause::RetryStall, end);
        }
        self.probe
            .span_args(SSD_TRACK, "read", at, end, &[("bytes", len as u64)]);
        self.probe.latency("ssd.read", end.saturating_sub(at));
        if let Some(sp) = &attr {
            self.probe.attr_record("ssd.read", sp);
        }
        Access { start: at, end }
    }

    fn write(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        let mut attr = if self.probe.attr_on() {
            Some(AttrSpan::new(at))
        } else {
            None
        };
        let start = self.admit(at);
        let t = start + self.params.command_overhead;
        let a = self.cache.write(t, addr, len);
        if let Some(sp) = attr.as_mut() {
            sp.advance(Cause::QueueWait, start);
            sp.advance(Cause::SoftwareStack, t);
            sp.advance(Cause::Media, a.end);
        }
        self.probe
            .span_args(SSD_TRACK, "write", at, a.end, &[("bytes", len as u64)]);
        self.probe.latency("ssd.write", a.end.saturating_sub(at));
        if let Some(sp) = &attr {
            self.probe.attr_record("ssd.write", sp);
        }
        Access {
            start: at,
            end: a.end,
        }
    }

    fn energy(&self) -> EnergyBook {
        let mut e = self.ctrl_energy.clone();
        e.merge(&self.cache.energy());
        e
    }

    fn label(&self) -> &'static str {
        match self.params.kind {
            CellKind::Slc => "ssd-slc",
            CellKind::Mlc => "ssd-mlc",
            CellKind::Tlc => "ssd-tlc",
        }
    }

    fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    fn probe(&self) -> &Probe {
        &self.probe
    }

    fn collect_metrics(&self, out: &mut MetricSet) {
        // The internal buffer cache reports under `ssd.` so it never
        // collides with an accelerator-side page cache in the same
        // system.
        out.add("ssd.requests", self.requests);
        out.add("ssd.buffer_hits", self.cache.stats().hits);
        out.add("ssd.buffer_misses", self.cache.stats().misses);
        out.add("ssd.buffer_writebacks", self.cache.stats().writebacks);
        if let Some(fs) = &self.faults {
            out.add("fault.injected", fs.counters.injected);
            out.add("ssd.transient_faults", fs.counters.ssd_transient_faults);
            out.add("ssd.retries", fs.counters.ssd_retries);
            out.add("ssd.retry_stall_ns", fs.counters.retry_stall_ps / 1000);
        }
    }

    fn collect_faults(&self, out: &mut FaultCounters) {
        if let Some(fs) = &self.faults {
            out.merge(&fs.counters);
        }
    }

    fn snapshot_state(&self) -> Result<StateImage, SnapshotError> {
        use util::json::ToJson;
        let data = util::json::Json::Obj(vec![
            ("cache".to_string(), self.cache.snapshot_state()?.to_json()),
            ("params".to_string(), self.params.to_json()),
            ("contexts".to_string(), self.contexts.to_json()),
            ("ctrl_energy".to_string(), self.ctrl_energy.to_json()),
            ("requests".to_string(), self.requests.to_json()),
            ("faults".to_string(), self.faults.to_json()),
        ]);
        Ok(StateImage::new(SSD_KIND, SSD_VERSION, data))
    }

    /// Checks the controller's own fields against the built ones (the
    /// same `params` and fault plan, one context per queue slot,
    /// counters under their ceilings), restores the buffer cache, then
    /// takes the fields. The probe stays attached.
    fn restore_state(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        let data = image.expect(SSD_KIND, SSD_VERSION)?;
        let m = |e| SnapshotError::malformed(SSD_KIND, e);
        let mut f = util::json::Fields::new(data);
        let cache_img: StateImage = f.get("cache").map_err(m)?;
        let params: SsdParams = f.get("params").map_err(m)?;
        let contexts: TimelineBank = f.get("contexts").map_err(m)?;
        let ctrl_energy: EnergyBook = f.get("ctrl_energy").map_err(m)?;
        let requests: u64 = f.get("requests").map_err(m)?;
        let faults: Option<SsdFaultState> = f.get("faults").map_err(m)?;
        f.finish().map_err(m)?;
        let shape = |e: String| SnapshotError::shape(SSD_KIND, e);
        check_config("params", &params, &self.params).map_err(shape)?;
        contexts
            .check(params.queue_depth)
            .map_err(|e| shape(format!("contexts.{e}")))?;
        ctrl_energy
            .check()
            .map_err(|e| shape(format!("ctrl_energy.{e}")))?;
        check_counter("requests", requests).map_err(shape)?;
        match (&faults, &self.faults) {
            (None, None) => {}
            (Some(image), Some(built)) => image
                .check(built)
                .map_err(|e| shape(format!("faults.{e}")))?,
            (Some(_), None) => {
                return Err(shape(
                    "faults holds fault state, the configuration has no fault plan".into(),
                ))
            }
            (None, Some(_)) => {
                return Err(shape(
                    "faults is null, the configuration has a fault plan".into(),
                ))
            }
        }
        self.cache.restore_state(&cache_img)?;
        self.contexts = contexts;
        self.ctrl_energy = ctrl_energy;
        self.requests = requests;
        self.faults = faults;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_read_pays_flash_hot_read_pays_dram() {
        let mut ssd = FlashSsd::new(SsdParams::tiny(CellKind::Mlc));
        let cold = ssd.read(Picos::ZERO, 0, 4096);
        let cold_lat = cold.end;
        // MLC tR 50 us + transfer + command overhead.
        assert!(cold_lat > Picos::from_us(50), "{cold_lat}");
        let hot = ssd.read(cold.end, 0, 4096);
        let hot_lat = hot.end - cold.end;
        assert!(hot_lat < Picos::from_us(15), "{hot_lat}");
    }

    #[test]
    fn command_overhead_always_charged() {
        let mut ssd = FlashSsd::new(SsdParams::tiny(CellKind::Slc));
        ssd.read(Picos::ZERO, 0, 64);
        let a = ssd.read(Picos::from_ms(1), 0, 64);
        assert!(a.end - Picos::from_ms(1) >= ssd.params().command_overhead);
        assert_eq!(ssd.requests(), 2);
    }

    #[test]
    fn buffered_writes_are_fast_until_eviction() {
        let mut ssd = FlashSsd::new(SsdParams::tiny(CellKind::Mlc));
        let a = ssd.write(Picos::ZERO, 0, 4096);
        // Absorbs into the buffer after one page fetch (RMW).
        let b = ssd.write(a.end, 0, 4096);
        assert!(b.end - a.end < Picos::from_us(10), "{:?}", b.end - a.end);
    }

    #[test]
    fn transient_read_faults_cost_time_only() {
        let plan = FaultPlan {
            ssd: sim_core::fault::SsdFaults {
                transient_read_rate: 0.5,
            },
            ..Default::default()
        };
        let mut clean = FlashSsd::new(SsdParams::tiny(CellKind::Mlc));
        let mut faulty = FlashSsd::new(SsdParams::tiny(CellKind::Mlc)).with_faults(&plan);
        let mut inert =
            FlashSsd::new(SsdParams::tiny(CellKind::Mlc)).with_faults(&FaultPlan::default());
        let (mut tc, mut tf, mut ti) = (Picos::ZERO, Picos::ZERO, Picos::ZERO);
        for i in 0..16u64 {
            tc = clean.read(tc, i * 512, 512).end;
            tf = faulty.read(tf, i * 512, 512).end;
            ti = inert.read(ti, i * 512, 512).end;
        }
        assert!(tf > tc, "replays must cost time: {tf} vs {tc}");
        assert_eq!(ti, tc, "an inert plan must not change timing");
        assert!(inert.fault_counters().unwrap().is_zero());
        let f = *faulty.fault_counters().unwrap();
        assert!(f.ssd_transient_faults > 0 && f.ssd_retries > 0, "{f:?}");
        let mut m = MetricSet::new();
        faulty.collect_metrics(&mut m);
        assert_eq!(m.counter("ssd.retries"), Some(f.ssd_retries));
        let mut ledger = FaultCounters::default();
        faulty.collect_faults(&mut ledger);
        assert_eq!(ledger, f);
    }

    #[test]
    fn energy_ledger_spans_ctrl_dram_flash() {
        let mut ssd = FlashSsd::new(SsdParams::tiny(CellKind::Mlc));
        ssd.read(Picos::ZERO, 0, 4096);
        let e = ssd.energy();
        assert!(e.energy_of("ssd.ctrl").as_pj() > 0.0);
        assert!(e.energy_of("flash.read").as_pj() > 0.0);
        assert!(e.energy_of("dram.access").as_pj() > 0.0);
    }
}
