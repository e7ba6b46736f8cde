//! System composition and the end-to-end runner.
//!
//! [`build_system`] turns a declarative [`SystemSpec`] into a
//! [`ComposedSystem`] — an execution-phase memory backend plus the
//! optional bulk-staging machinery — and [`simulate_spec_built`] (or the
//! preset wrappers [`simulate`]/[`simulate_built`]/
//! [`simulate_dramless_scheduler`]) plays a workload through the
//! Figure 5/9 protocol. Every configuration, Table I preset or custom,
//! runs through the same four phases:
//!
//! 1. **Offload** — the host packs a kernel image (`packData`), pushes it
//!    over PCIe (`pushData`), and the server unpacks and schedules it;
//! 2. **Staging in** — staged datapaths (host-mediated or P2P DMA) move
//!    the input data from the external device into the accelerator DRAM,
//!    once per capacity round; integrated designs already hold the data
//!    in their storage medium ("a common practice in prior research" —
//!    data is initialized in place before the run);
//! 3. **Execution** — the agent PEs replay their traces against the
//!    configuration's memory backend;
//! 4. **Staging out** — staged datapaths write results back.

use crate::config::{SystemId, SystemKind, SystemParams};
use crate::report::{Breakdown, RunOutcome};
use crate::spec::{Buffer, Control, Datapath, Medium, SpecError, SystemSpec, TelemetrySpec};
use accel::exec::{AccelConfig, Accelerator, ExecReport};
use accel::kernel::{KernelImage, Segment};
use flash::{FlashDevice, FlashGeometry, FlashTiming};
use host::stack::HostStackParams;
use host::staging::Stager;
use host::{PcieLink, StagingPath};
use pram_ctrl::{FirmwareController, PramController, SchedulerKind};
use sim_core::energy::{EnergyBook, Watts};
use sim_core::fault::{FaultCounters, FaultPlan};
use sim_core::mem::{Access, MemoryBackend};
use sim_core::probe::{AttrScope, Probe, Telemetry};
use sim_core::snapshot::{check_config, SnapshotError, StateImage};
use sim_core::time::Picos;
use storage::cache::PageStore;
use storage::dram::DramParams;
use storage::optane::PramSsdParams;
use storage::ssd::SsdParams;
use storage::{CachedStore, DramModel, NorPram, PramSsd};
use util::telemetry::{MetricSet, TraceEvent};
use workloads::suite::BuiltWorkload;
use workloads::Workload;

/// Adapts any byte-addressable backend to the page interface used by the
/// "PAGE-buffer"-style configurations: all I/O moves whole pages through
/// the DRAM buffer, even when the underlying medium could serve bytes.
pub struct PageAdapter {
    inner: Box<dyn MemoryBackend>,
    page_bytes: u32,
}

impl std::fmt::Debug for PageAdapter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageAdapter")
            .field("inner", &self.inner.label())
            .field("page_bytes", &self.page_bytes)
            .finish()
    }
}

impl PageAdapter {
    /// Wraps `inner` behind `page_bytes` pages.
    pub fn new(inner: Box<dyn MemoryBackend>, page_bytes: u32) -> Self {
        PageAdapter { inner, page_bytes }
    }
}

/// Image tag for [`PageAdapter`] snapshots.
const ADAPTER_KIND: &str = "dramless/page-adapter";
/// Schema version of [`ADAPTER_KIND`] images.
const ADAPTER_VERSION: u32 = 1;

impl PageStore for PageAdapter {
    fn page_bytes(&self) -> u32 {
        self.page_bytes
    }

    fn store_snapshot(&self) -> Result<StateImage, SnapshotError> {
        use util::json::ToJson;
        let data = util::json::Json::Obj(vec![
            ("page_bytes".to_string(), self.page_bytes.to_json()),
            ("inner".to_string(), self.inner.snapshot_state()?.to_json()),
        ]);
        Ok(StateImage::new(ADAPTER_KIND, ADAPTER_VERSION, data))
    }

    fn store_restore(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        let data = image.expect(ADAPTER_KIND, ADAPTER_VERSION)?;
        let m = |e| SnapshotError::malformed(ADAPTER_KIND, e);
        let mut f = util::json::Fields::new(data);
        let page_bytes: u32 = f.get("page_bytes").map_err(m)?;
        check_config("page_bytes", &page_bytes, &self.page_bytes)
            .map_err(|e| SnapshotError::shape(ADAPTER_KIND, e))?;
        let inner: StateImage = f.get("inner").map_err(m)?;
        f.finish().map_err(m)?;
        self.inner.restore_state(&inner)
    }

    fn fetch_page(&mut self, at: Picos, page: u64) -> Access {
        self.inner
            .read(at, page * self.page_bytes as u64, self.page_bytes)
    }

    fn store_page(&mut self, at: Picos, page: u64) -> Access {
        self.inner
            .write(at, page * self.page_bytes as u64, self.page_bytes)
    }

    fn store_energy(&self) -> EnergyBook {
        self.inner.energy()
    }

    fn store_label(&self) -> &'static str {
        "page-buffer"
    }

    fn set_probe(&mut self, probe: Probe) {
        self.inner.set_probe(probe);
    }

    fn collect_metrics(&self, out: &mut MetricSet) {
        self.inner.collect_metrics(out);
    }

    fn collect_faults(&self, out: &mut FaultCounters) {
        self.inner.collect_faults(out);
    }
}

/// The staged execution-phase store: the accelerator's internal DRAM
/// acts as a page cache over the external device, with every miss
/// crossing the staging path (host-mediated software stack for *Hetero*,
/// peer-to-peer DMA for *Heterodirect*). This is where the paper's
/// "SSD access requests generated by computation kernels introduce many
/// software interventions at the host side" materializes.
pub struct HeteroStore {
    stager: Stager,
    ssd: Box<dyn MemoryBackend>,
    page_bytes: u32,
}

impl std::fmt::Debug for HeteroStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeteroStore")
            .field("path", &self.stager.path().label())
            .field("ssd", &self.ssd.label())
            .field("page_bytes", &self.page_bytes)
            .finish()
    }
}

impl HeteroStore {
    /// Builds the store.
    pub fn new(stager: Stager, ssd: Box<dyn MemoryBackend>, page_bytes: u32) -> Self {
        HeteroStore {
            stager,
            ssd,
            page_bytes,
        }
    }
}

/// Image tag for [`HeteroStore`] snapshots.
const HETERO_KIND: &str = "dramless/hetero-store";
/// Schema version of [`HETERO_KIND`] images.
const HETERO_VERSION: u32 = 1;

impl PageStore for HeteroStore {
    fn page_bytes(&self) -> u32 {
        self.page_bytes
    }

    fn store_snapshot(&self) -> Result<StateImage, SnapshotError> {
        use util::json::ToJson;
        let data = util::json::Json::Obj(vec![
            ("page_bytes".to_string(), self.page_bytes.to_json()),
            ("stager".to_string(), self.stager.snapshot_state().to_json()),
            ("ssd".to_string(), self.ssd.snapshot_state()?.to_json()),
        ]);
        Ok(StateImage::new(HETERO_KIND, HETERO_VERSION, data))
    }

    fn store_restore(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        let data = image.expect(HETERO_KIND, HETERO_VERSION)?;
        let m = |e| SnapshotError::malformed(HETERO_KIND, e);
        let mut f = util::json::Fields::new(data);
        let page_bytes: u32 = f.get("page_bytes").map_err(m)?;
        check_config("page_bytes", &page_bytes, &self.page_bytes)
            .map_err(|e| SnapshotError::shape(HETERO_KIND, e))?;
        let stager: StateImage = f.get("stager").map_err(m)?;
        let ssd: StateImage = f.get("ssd").map_err(m)?;
        f.finish().map_err(m)?;
        self.stager.restore_state(&stager)?;
        self.ssd.restore_state(&ssd)
    }

    fn fetch_page(&mut self, at: Picos, page: u64) -> Access {
        let r = self.stager.stage_in(
            at,
            self.ssd.as_mut(),
            page * self.page_bytes as u64,
            self.page_bytes as u64,
        );
        Access {
            start: at,
            end: r.done,
        }
    }

    fn store_page(&mut self, at: Picos, page: u64) -> Access {
        let r = self.stager.stage_out(
            at,
            self.ssd.as_mut(),
            page * self.page_bytes as u64,
            self.page_bytes as u64,
        );
        Access {
            start: at,
            end: r.done,
        }
    }

    fn store_energy(&self) -> EnergyBook {
        let mut e = self.stager.energy();
        e.merge(&self.ssd.energy());
        e
    }

    fn store_label(&self) -> &'static str {
        self.stager.path().label()
    }

    fn set_probe(&mut self, probe: Probe) {
        self.stager.set_probe(probe.clone());
        self.ssd.set_probe(probe);
    }

    fn collect_metrics(&self, out: &mut MetricSet) {
        self.stager.collect_metrics(out);
        self.ssd.collect_metrics(out);
    }

    fn collect_faults(&self, out: &mut FaultCounters) {
        self.ssd.collect_faults(out);
    }
}

/// The bulk-staging machinery of a staged datapath: phases 2 and 4 move
/// `SystemParams::capacity_pressure`-bounded rounds through this stager
/// against a second instance of the external device.
pub struct StagingPhase {
    /// The staging path (follows the spec's datapath — host-mediated or
    /// peer-to-peer DMA).
    pub stager: Stager,
    /// The external device being staged from/to.
    pub store: Box<dyn MemoryBackend>,
}

/// A runnable composition: what [`build_system`] produces from a
/// [`SystemSpec`] and the single phase-driven runner consumes.
pub struct ComposedSystem {
    /// The execution-phase memory backend the PEs replay against.
    pub backend: Box<dyn MemoryBackend>,
    /// Bulk staging for phases 2/4 (staged datapaths only).
    pub staging: Option<StagingPhase>,
    /// Whether the kernel image is written through the backend during
    /// offload (everything except the direct NOR interface, whose
    /// ~0.5 MB/s 9x-nm PRAM writes would dominate; it keeps images in
    /// controller SRAM).
    pub image_via_backend: bool,
    /// Whether the run pays DRAM refresh/standby power for an internal
    /// buffer (Table I row "Internal DRAM", plus the all-DRAM ideal).
    pub charges_dram_refresh: bool,
}

impl std::fmt::Debug for ComposedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComposedSystem")
            .field("backend", &self.backend.label())
            .field("staged", &self.staging.is_some())
            .field("image_via_backend", &self.image_via_backend)
            .field("charges_dram_refresh", &self.charges_dram_refresh)
            .finish()
    }
}

/// Builds the PRAM subsystem a spec's control axis describes, arming
/// fault injection when the spec carries a plan.
fn build_control(
    control: &Control,
    seed: u64,
    faults: Option<&FaultPlan>,
) -> Box<dyn MemoryBackend> {
    let armed = |ctrl: PramController| match faults {
        Some(plan) => ctrl.with_faults(plan),
        None => ctrl,
    };
    match control {
        Control::HardwareAutomated { scheduler } => {
            Box::new(armed(PramController::paper(*scheduler, seed)))
        }
        Control::Firmware { scheduler, params } => Box::new(FirmwareController::new(
            armed(PramController::paper(*scheduler, seed)),
            *params,
        )),
    }
}

/// Builds one instance of a spec's medium as an externally-attached
/// (staged) device.
fn build_external(
    spec: &SystemSpec,
    params: &SystemParams,
) -> Result<Box<dyn MemoryBackend>, SpecError> {
    match spec.medium {
        Medium::FlashSsd { cell } => {
            // Keep per-byte bandwidth at the Table I level despite the
            // scaled page size.
            let timing = FlashTiming::table1_scaled(cell, params.page_scale_divisor());
            let ssd =
                storage::FlashSsd::with_timing(SsdParams::table1(cell, params.page_bytes), timing);
            Ok(Box::new(match &spec.faults {
                Some(plan) => ssd.with_faults(plan),
                None => ssd,
            }))
        }
        Medium::PramSsd => Ok(Box::new(PramSsd::new(PramSsdParams::default()))),
        Medium::Pram3x => Ok(build_control(
            &spec.control,
            params.seed,
            spec.faults.as_ref(),
        )),
        Medium::NorPram => Ok(Box::new(NorPram::new(Default::default()))),
        Medium::IntegratedFlash { .. } => Err(SpecError::new(
            "IntegratedFlash lives inside the accelerator; use the PageInterface \
             datapath, or stage a FlashSsd instead",
        )),
        Medium::Dram => Err(SpecError::new(
            "Dram is the in-memory ideal; use the DirectLoadStore datapath",
        )),
    }
}

/// Frame count of the internal DRAM cache: the spec's explicit size, or
/// the footprint-pressure-derived default the Table I presets use.
fn cache_frames(
    frames: Option<usize>,
    buffer_bytes: u64,
    unit_bytes: u32,
) -> Result<usize, SpecError> {
    match frames {
        Some(0) => Err(SpecError::new("DramPageCache frames must be >= 1")),
        Some(n) => Ok(n),
        None => Ok((buffer_bytes / unit_bytes as u64).max(4) as usize),
    }
}

/// Composes a runnable system from a declarative spec.
///
/// This is the single factory behind every configuration: the Table I
/// presets ([`SystemKind::spec`]) and anything else the four axes can
/// express. Combinations the composition rules cannot build (flash over
/// direct load/store, a staged datapath with no internal buffer, …)
/// return a typed [`SpecError`] instead of panicking.
///
/// # Errors
///
/// Returns [`SpecError`] when the axes are incompatible.
pub fn build_system(
    spec: &SystemSpec,
    params: &SystemParams,
    footprint: u64,
) -> Result<ComposedSystem, SpecError> {
    let buffer_bytes =
        ((footprint as f64 / params.capacity_pressure) as u64).max(params.page_bytes as u64 * 2);
    let image_via_backend = !matches!(
        (spec.medium, spec.datapath),
        (Medium::NorPram, Datapath::DirectLoadStore)
    );
    let charges_dram_refresh =
        matches!(spec.buffer, Buffer::DramPageCache { .. }) || matches!(spec.medium, Medium::Dram);
    let (backend, staging): (Box<dyn MemoryBackend>, Option<StagingPhase>) = match spec.datapath {
        Datapath::HostMediated | Datapath::P2pDma => {
            let path = match spec.datapath {
                Datapath::HostMediated => StagingPath::HostMediated,
                _ => StagingPath::P2pDma,
            };
            let frames_spec = match spec.buffer {
                Buffer::DramPageCache { frames } => frames,
                Buffer::None => {
                    return Err(SpecError::new(format!(
                        "a staged datapath ({}) demand-pages through an internal \
                         buffer; set buffer to DramPageCache",
                        spec.datapath.label()
                    )))
                }
            };
            // Demand-paging granularity: half a flash page — small
            // enough that the scaled DRAM buffer holds a meaningful
            // number of frames, large enough to amortize per-request
            // software cost.
            let unit = params.page_bytes / 2;
            let store = HeteroStore::new(
                Stager::with_stack(path, HostStackParams::with_request_bytes(unit as u64)),
                build_external(spec, params)?,
                unit,
            );
            let frames = cache_frames(frames_spec, buffer_bytes, unit)?;
            // Bulk staging follows the spec's datapath too (phases 2/4),
            // with the large sequential request size of a preload.
            let staging = StagingPhase {
                stager: Stager::with_stack(
                    path,
                    HostStackParams::with_request_bytes(8 * params.page_bytes as u64),
                ),
                store: build_external(spec, params)?,
            };
            (
                Box::new(CachedStore::new(store, DramParams::default(), frames)),
                Some(staging),
            )
        }
        Datapath::PageInterface => {
            let frames_spec = match spec.buffer {
                Buffer::DramPageCache { frames } => frames,
                Buffer::None => {
                    return Err(SpecError::new(
                        "the PageInterface datapath lands whole pages in an internal \
                         buffer; set buffer to DramPageCache",
                    ))
                }
            };
            let frames = cache_frames(frames_spec, buffer_bytes, params.page_bytes)?;
            let backend: Box<dyn MemoryBackend> = match spec.medium {
                Medium::IntegratedFlash { cell } => {
                    let timing = FlashTiming::table1_scaled(cell, params.page_scale_divisor());
                    let dev = FlashDevice::with_timing(
                        FlashGeometry::accelerator(params.page_bytes),
                        cell,
                        timing,
                    );
                    Box::new(CachedStore::new(dev, DramParams::default(), frames))
                }
                Medium::Pram3x => {
                    let adapter = PageAdapter::new(
                        build_control(&spec.control, params.seed, spec.faults.as_ref()),
                        params.page_bytes,
                    );
                    Box::new(CachedStore::new(adapter, DramParams::default(), frames))
                }
                Medium::NorPram => {
                    let adapter = PageAdapter::new(
                        Box::new(NorPram::new(Default::default())),
                        params.page_bytes,
                    );
                    Box::new(CachedStore::new(adapter, DramParams::default(), frames))
                }
                Medium::PramSsd => {
                    let adapter = PageAdapter::new(
                        Box::new(PramSsd::new(PramSsdParams::default())),
                        params.page_bytes,
                    );
                    Box::new(CachedStore::new(adapter, DramParams::default(), frames))
                }
                Medium::FlashSsd { .. } => {
                    return Err(SpecError::new(
                        "FlashSsd is an external block device; reach it over a staged \
                         datapath (HostMediated or P2pDma), or use IntegratedFlash \
                         for in-accelerator flash",
                    ))
                }
                Medium::Dram => {
                    return Err(SpecError::new(
                        "Dram needs no page interface; use the DirectLoadStore datapath",
                    ))
                }
            };
            (backend, None)
        }
        Datapath::DirectLoadStore => {
            if !matches!(spec.buffer, Buffer::None) {
                return Err(SpecError::new(
                    "the DirectLoadStore datapath serves the medium's latency \
                     directly; set buffer to None",
                ));
            }
            let backend: Box<dyn MemoryBackend> = match spec.medium {
                Medium::Pram3x => build_control(&spec.control, params.seed, spec.faults.as_ref()),
                Medium::NorPram => Box::new(NorPram::new(Default::default())),
                Medium::Dram => Box::new(DramModel::new(DramParams {
                    capacity: u64::MAX / 2, // staging rounds model the capacity limit
                    ..Default::default()
                })),
                Medium::FlashSsd { .. } | Medium::IntegratedFlash { .. } => {
                    return Err(SpecError::new(
                        "flash reads whole pages and cannot serve load/store words; \
                         use the PageInterface datapath or a staged FlashSsd",
                    ))
                }
                Medium::PramSsd => {
                    return Err(SpecError::new(
                        "PramSsd is a block device behind an NVMe-style interface; \
                         reach it over a staged datapath (HostMediated or P2pDma)",
                    ))
                }
            };
            (backend, None)
        }
    };
    Ok(ComposedSystem {
        backend,
        staging,
        image_via_backend,
        charges_dram_refresh,
    })
}

/// Models the kernel offload (Figures 9b/10): pack the image, push it
/// over PCIe, unpack and plant boot addresses. Returns when the agents
/// can start.
fn offload(
    params: &SystemParams,
    agents: usize,
    backend: &mut dyn MemoryBackend,
    link: &mut PcieLink,
    image_via_backend: bool,
) -> Picos {
    // packData: one shared segment plus one app segment per agent.
    let mut segments = vec![Segment {
        name: "shared".into(),
        load_addr: 0x0,
        entry: None,
        payload: vec![0x90u8; params.image_bytes_per_agent as usize / 2],
    }];
    for a in 0..agents {
        segments.push(Segment {
            name: format!("app{a}"),
            load_addr: 0x1000 + a as u64 * params.image_bytes_per_agent as u64,
            entry: Some(0x1000 + a as u64 * params.image_bytes_per_agent as u64),
            payload: vec![0x42u8; params.image_bytes_per_agent as usize],
        });
    }
    let image = KernelImage::pack(segments);
    let wire = image.to_bytes();
    // pushData: PCIe DMA of the image, then an interrupt to the server.
    let dma = link.dma(Picos::ZERO, wire.len() as u64);
    let irq = link.message(dma.end);
    // unpackData: the server loads each segment into the image space.
    let parsed = KernelImage::from_bytes(&wire).expect("self-packed image parses");
    let mut t = irq.end;
    if image_via_backend {
        for seg in parsed.segments() {
            // Each segment write is one attributed offload unit.
            backend.probe().attr_tag_next(AttrScope::Offload);
            let a = backend.write(t, seg.load_addr, seg.payload.len() as u32);
            t = a.end;
        }
    } else {
        // The NOR-intf platform keeps images in controller SRAM: its
        // 9x-nm PRAM writes (~0.5 MB/s) would otherwise spend tens of
        // milliseconds per offload. Parsing/copy cost only.
        t += Picos::from_us(parsed.payload_bytes() / 1_000);
    }
    t
}

/// The explicit state handoff between the deterministic preparation
/// phases (1: offload, 2: initial staging) and the execution phase: the
/// composed system with its phase clocks advanced, the offload link's
/// energy ledger, and the accelerator configuration execution will run
/// under.
///
/// Factoring the handoff out of the runner is what lets the
/// record/replay layer re-derive phases 1–2 cheaply on resume (they are
/// pure functions of the spec and workload) and then restore only the
/// execution-phase images over the freshly prepared state.
pub(crate) struct PreparedRun {
    /// The composed system, post-offload and post-stage-in.
    pub(crate) sys: ComposedSystem,
    /// The PCIe link the offload crossed (its energy joins the ledger).
    pub(crate) link: PcieLink,
    /// Phase 1 wall-clock.
    pub(crate) offload_done: Picos,
    /// Phase 2 wall-clock (zero for integrated datapaths).
    pub(crate) staging_in: Picos,
    /// Absolute start time of the execution phase.
    pub(crate) exec_start: Picos,
    /// Internal-buffer capacity derived from footprint pressure.
    pub(crate) buffer_bytes: u64,
    /// The accelerator configuration execution runs under.
    pub(crate) cfg: AccelConfig,
}

/// Phases 1–2 of the runner: probe wiring, kernel offload, and the
/// initial bulk stage-in. Deterministic and cheap relative to
/// execution, which is why resume re-runs them instead of imaging their
/// transient state.
pub(crate) fn prepare_phases(
    mut sys: ComposedSystem,
    built: &BuiltWorkload,
    params: &SystemParams,
    telemetry: Option<&Telemetry>,
) -> PreparedRun {
    let mut link = PcieLink::new(Default::default());

    // Hand live probes to every component before anything runs; the
    // default (telemetry off) leaves every probe disabled at the cost of
    // one `Option` check per instrumentation point.
    if let Some(tel) = telemetry {
        let probe = tel.probe();
        sys.backend.set_probe(probe.clone());
        if let Some(stage) = sys.staging.as_mut() {
            stage.stager.set_probe(probe.clone());
            stage.store.set_probe(probe);
        }
    }

    // Phase 1: kernel offload.
    let offload_done = offload(
        params,
        built.traces.len(),
        sys.backend.as_mut(),
        &mut link,
        sys.image_via_backend,
    );

    // Phase 2: initial staging (staged datapaths only): the host
    // preloads as much input as the accelerator DRAM holds (Fig. 5a).
    // The rest of the dataset demand-pages through the same staging path
    // *during* execution — the capacity pressure that motivates the
    // paper.
    let buffer_bytes = (built.character.footprint as f64 / params.capacity_pressure) as u64;
    let mut staging_in = Picos::ZERO;
    let mut exec_start = offload_done;
    if let Some(stage) = sys.staging.as_mut() {
        let bytes = built.character.bytes_in.max(1).min(buffer_bytes.max(4096));
        let r = stage
            .stager
            .stage_in(offload_done, stage.store.as_mut(), 0, bytes);
        staging_in = r.done - offload_done;
        exec_start = r.done;
    }

    let cfg = AccelConfig {
        pes: params.agents + 1,
        sample_bucket: Picos::from_us(params.sample_bucket_us),
        ..Default::default()
    };
    PreparedRun {
        sys,
        link,
        offload_done,
        staging_in,
        exec_start,
        buffer_bytes,
        cfg,
    }
}

/// The one phase-driven runner every configuration goes through:
/// offload → stage-in → execution → stage-out, with the energy ledger
/// merged across all components.
fn run_composed(
    id: SystemId,
    sys: ComposedSystem,
    built: &BuiltWorkload,
    params: &SystemParams,
    telemetry: Option<&Telemetry>,
    faults_armed: bool,
    analytic: Option<&crate::analytic::ExecModel>,
) -> RunOutcome {
    let mut prep = prepare_phases(sys, built, params, telemetry);

    // Phase 3: execution. (The engine starts its own clock at zero; the
    // phases compose as wall-clock segments.) The analytic tier swaps
    // only this phase: offload and staging above already ran the real
    // models, so the closed form replaces exactly the per-request work.
    let exec = match analytic {
        Some(model) => model.exec(&prep.cfg),
        None => {
            // Schedule-driven replay: the backend request stream is a
            // pure function of (traces, cache geometry), so the sweep
            // derives it once per workload (process-wide memoized) and
            // replays it here through the real cycle-level backend —
            // bit-identical reports, no per-cell trace decode or cache
            // simulation.
            let sched = workloads::cache::schedule_for(built, prep.cfg.l1, prep.cfg.l2);
            let mut accel = Accelerator::new(prep.cfg);
            if let Some(tel) = telemetry {
                accel.set_probe(tel.probe());
            }
            accel.run_schedule_at(prep.exec_start, &sched, prep.sys.backend.as_mut())
        }
    };

    finalize_run(id, prep, built, telemetry, faults_armed, exec)
}

/// Phase 4 plus the ledger merge: stages results out, folds energy,
/// metrics and fault counters across every component, and assembles the
/// [`RunOutcome`]. Consumes the prepared state — after this the run is
/// fully accounted.
pub(crate) fn finalize_run(
    id: SystemId,
    mut prep: PreparedRun,
    built: &BuiltWorkload,
    telemetry: Option<&Telemetry>,
    faults_armed: bool,
    exec: ExecReport,
) -> RunOutcome {
    let sys = &mut prep.sys;
    let link = &prep.link;
    let offload_done = prep.offload_done;
    let staging_in = prep.staging_in;
    let exec_start = prep.exec_start;
    let buffer_bytes = prep.buffer_bytes;

    // Phase 4: staging out the final results (dirty pages evicted during
    // execution already crossed the path inside the backend).
    let mut staging_out = Picos::ZERO;
    if let Some(stage) = sys.staging.as_mut() {
        let bytes = built.character.bytes_out.max(1).min(buffer_bytes.max(4096));
        let r =
            stage
                .stager
                .stage_out(exec_start + exec.total_time, stage.store.as_mut(), 0, bytes);
        staging_out = r.done - (exec_start + exec.total_time);
    }

    let total_time = offload_done + staging_in + exec.total_time + staging_out;

    // Per-agent normalization so PE-time sums compose with wall-clock.
    let agents = built.traces.len() as u64;
    let breakdown = Breakdown {
        offload: offload_done,
        staging_in,
        compute: exec.compute_time / agents,
        memory: exec.stall_time / agents,
        staging_out,
    };

    // Energy: PEs + backend + staging path + PCIe offload link. The
    // backend's owned book seeds the merge so `exec.energy` (which stays
    // inside the outcome) never has to be cloned.
    let mut energy = sys.backend.energy();
    energy.merge(&exec.energy);
    energy.merge(link.energy());
    if let Some(stage) = sys.staging.as_ref() {
        energy.merge(&stage.stager.energy());
        energy.merge(&stage.store.energy());
        // Device-active power while the SSD streams, and the platform
        // idling while it waits on data movement — the standby waste the
        // paper's Fig. 17 attributes to conventional systems.
        let staging = staging_in + staging_out;
        energy.charge("ssd.active", Watts::from_w(3.0) * staging);
        energy.charge("platform.idle", Watts::from_w(1.0) * staging);
    }
    if sys.charges_dram_refresh {
        // DRAM refresh/standby for the 1 GB-class internal buffer.
        energy.charge("dram.refresh", Watts::from_w(0.5) * total_time);
    }

    let data_bytes = built.character.loads * 8 + built.character.stores * 8;

    // Fold each component's end-of-run counters into the hub; the caller
    // drains the hub once (`Telemetry::finish`) and attaches the merged
    // set to the outcome.
    if let Some(tel) = telemetry {
        let mut m = MetricSet::new();
        sys.backend.collect_metrics(&mut m);
        if let Some(stage) = sys.staging.as_ref() {
            stage.stager.collect_metrics(&mut m);
            stage.store.collect_metrics(&mut m);
        }
        exec.collect_metrics(&mut m);
        tel.merge_metrics(&m);
    }

    // Degradation ledger: collected whenever the spec armed a fault
    // plan, even if every counter stayed zero (recording that injection
    // was on distinguishes "no faults fired" from "not armed").
    let degraded = if faults_armed {
        let mut d = FaultCounters::default();
        sys.backend.collect_faults(&mut d);
        if let Some(stage) = sys.staging.as_ref() {
            stage.store.collect_faults(&mut d);
        }
        Some(d)
    } else {
        None
    };

    RunOutcome {
        system: id,
        kernel: built.workload.kernel,
        total_time,
        data_bytes,
        exec,
        breakdown,
        energy,
        metrics: MetricSet::new(),
        degraded,
        attr: None,
    }
}

/// Runs one cell, honouring the spec's telemetry knob, and returns the
/// outcome plus the event trace — empty unless `keep_trace`. Malformed
/// parameters fail with the same [`SystemParams::validate`] error a
/// sweep gives.
fn run_cell(
    id: SystemId,
    spec: &SystemSpec,
    built: &BuiltWorkload,
    params: &SystemParams,
    keep_trace: bool,
) -> Result<(RunOutcome, Vec<TraceEvent>), SpecError> {
    params.validate()?;
    let model = match spec.tier {
        sim_core::mem::FidelityTier::Accurate => None,
        sim_core::mem::FidelityTier::Analytic => {
            Some(crate::analytic::ExecModel::for_spec(spec, built, params)?)
        }
    };
    run_cell_with_model(id, spec, built, params, model.as_ref(), keep_trace)
}

/// The shared tail of [`run_cell`]: composes the system and drives the
/// phase runner with an optional pre-built analytic model (the
/// `calibrate` binary injects candidate coefficients through this).
///
/// Only a `keep_trace` caller gets events back; every other run counts
/// its trace calls instead of storing them ([`Telemetry::counting`]),
/// which leaves the outcome — metrics included — unchanged.
pub(crate) fn run_cell_with_model(
    id: SystemId,
    spec: &SystemSpec,
    built: &BuiltWorkload,
    params: &SystemParams,
    model: Option<&crate::analytic::ExecModel>,
    keep_trace: bool,
) -> Result<(RunOutcome, Vec<TraceEvent>), SpecError> {
    let sys = build_system(spec, params, built.character.footprint)?;
    let armed = spec.faults.is_some();
    match spec.telemetry {
        None => Ok((
            run_composed(id, sys, built, params, None, armed, model),
            Vec::new(),
        )),
        Some(t) => {
            let tel = match (keep_trace, t.attribution) {
                (false, attribution) => Telemetry::counting(t.trace_events, attribution),
                (true, true) => Telemetry::with_attribution(t.trace_events),
                (true, false) => Telemetry::new(t.trace_events),
            };
            let mut out = run_composed(id, sys, built, params, Some(&tel), armed, model);
            out.attr = tel.attribution();
            let (events, metrics) = tel.finish();
            out.metrics = metrics;
            Ok((out, events))
        }
    }
}

/// Composes and runs `spec` under an explicit report identity — the
/// sweep engine and the preset wrappers both bottom out here.
///
/// When the spec's telemetry knob is on, the outcome carries the
/// per-component metric set; trace events are only counted, never
/// stored (use [`simulate_spec_traced`] to keep them).
///
/// # Errors
///
/// Returns [`SpecError`] when the parameters are malformed or
/// [`build_system`] rejects the spec.
pub fn simulate_spec_as(
    id: SystemId,
    spec: &SystemSpec,
    built: &BuiltWorkload,
    params: &SystemParams,
) -> Result<RunOutcome, SpecError> {
    Ok(run_cell(id, spec, built, params, false)?.0)
}

/// Runs `spec` with telemetry forced on and returns both the outcome
/// (metrics attached) and the time-sorted event trace — the engine
/// behind `dramless-sim --trace-out`. Feed the events to
/// [`util::telemetry::chrome_trace`] for a Perfetto-loadable file.
///
/// A spec without a telemetry knob gets [`TelemetrySpec::default`];
/// an explicit knob (custom ring capacity) is respected.
///
/// # Errors
///
/// Returns [`SpecError`] when the parameters are malformed or the
/// spec's axes are incompatible.
pub fn simulate_spec_traced(
    spec: &SystemSpec,
    built: &BuiltWorkload,
    params: &SystemParams,
) -> Result<(RunOutcome, Vec<TraceEvent>), SpecError> {
    let mut traced = spec.clone();
    if traced.telemetry.is_none() {
        traced.telemetry = Some(TelemetrySpec::default());
    }
    run_cell(
        SystemId::Custom(traced.display_name()),
        &traced,
        built,
        params,
        true,
    )
}

/// Simulates a built workload on a custom spec, reported under the
/// spec's display name.
///
/// # Errors
///
/// Returns [`SpecError`] when the spec's axes are incompatible.
pub fn simulate_spec_built(
    spec: &SystemSpec,
    built: &BuiltWorkload,
    params: &SystemParams,
) -> Result<RunOutcome, SpecError> {
    simulate_spec_as(SystemId::Custom(spec.display_name()), spec, built, params)
}

/// Simulates `workload` on a custom spec.
///
/// # Errors
///
/// Returns [`SpecError`] when the spec's axes are incompatible.
pub fn simulate_spec(
    spec: &SystemSpec,
    workload: &Workload,
    params: &SystemParams,
) -> Result<RunOutcome, SpecError> {
    let built = workload.build(params.agents);
    simulate_spec_built(spec, &built, params)
}

/// Simulates a built workload on the DRAM-less platform with an explicit
/// PRAM scheduler — the Fig. 13 ablation axis (Bare-metal / Interleaving
/// / Selective-erasing / Final). Identical to
/// [`SystemKind::DramLess`] except for the scheduler choice.
pub fn simulate_dramless_scheduler(
    sched: SchedulerKind,
    built: &BuiltWorkload,
    params: &SystemParams,
) -> RunOutcome {
    let spec = SystemSpec {
        control: Control::HardwareAutomated { scheduler: sched },
        ..SystemKind::DramLess.spec()
    };
    simulate_spec_as(SystemId::Preset(SystemKind::DramLess), &spec, built, params)
        .expect("the DRAM-less preset composes with any scheduler")
}

/// Simulates `workload` on `kind`, returning the full outcome.
pub fn simulate(kind: SystemKind, workload: &Workload, params: &SystemParams) -> RunOutcome {
    let built = workload.build(params.agents);
    simulate_built(kind, &built, params)
}

/// Like [`simulate`] but reuses an already-built workload (the sweep
/// helpers build each workload once and run it on every system).
pub fn simulate_built(
    kind: SystemKind,
    built: &BuiltWorkload,
    params: &SystemParams,
) -> RunOutcome {
    simulate_spec_as(SystemId::Preset(kind), &kind.spec(), built, params)
        .expect("every Table I preset composes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash::CellKind;
    use workloads::{Kernel, Scale};

    fn params() -> SystemParams {
        SystemParams::default()
    }

    fn tiny(kernel: Kernel) -> Workload {
        Workload::of(kernel, Scale(0.25))
    }

    #[test]
    fn every_system_runs_gemver() {
        let w = tiny(Kernel::Gemver);
        let built = w.build(params().agents);
        for kind in SystemKind::EVALUATED {
            let out = simulate_built(kind, &built, &params());
            assert!(out.total_time > Picos::ZERO, "{kind}");
            assert!(out.bandwidth() > 0.0, "{kind}");
            assert!(out.total_energy().as_j() > 0.0, "{kind}");
            assert_eq!(out.exec.instructions, built.character.instructions);
        }
    }

    #[test]
    fn dramless_beats_hetero_on_bandwidth() {
        // Needs a non-degenerate footprint so capacity pressure bites
        // (at very small scales constant offload costs blur the gap).
        let w = Workload::of(Kernel::Gemver, Scale(0.8));
        let built = w.build(params().agents);
        let dl = simulate_built(SystemKind::DramLess, &built, &params());
        let het = simulate_built(SystemKind::Hetero, &built, &params());
        assert!(
            dl.bandwidth() > het.bandwidth(),
            "DRAM-less {:.1} MB/s vs Hetero {:.1} MB/s",
            dl.bandwidth() / 1e6,
            het.bandwidth() / 1e6
        );
    }

    #[test]
    fn heterodirect_beats_hetero() {
        let w = tiny(Kernel::Gemver);
        let built = w.build(params().agents);
        let h = simulate_built(SystemKind::Hetero, &built, &params());
        let hd = simulate_built(SystemKind::Heterodirect, &built, &params());
        assert!(hd.total_time < h.total_time);
        // P2P removes host staging CPU energy.
        assert!(hd.energy.energy_of_prefix("host.") < h.energy.energy_of_prefix("host."));
    }

    #[test]
    fn firmware_variant_is_slower_than_hardware_automation() {
        let w = tiny(Kernel::Gemver);
        let built = w.build(params().agents);
        let hw = simulate_built(SystemKind::DramLess, &built, &params());
        let fw = simulate_built(SystemKind::DramLessFirmware, &built, &params());
        assert!(fw.total_time > hw.total_time);
    }

    #[test]
    fn ideal_is_fastest() {
        let w = tiny(Kernel::Gemver);
        let built = w.build(params().agents);
        let ideal = simulate_built(SystemKind::Ideal, &built, &params());
        for kind in SystemKind::EVALUATED {
            let out = simulate_built(kind, &built, &params());
            assert!(
                ideal.total_time <= out.total_time,
                "{kind} beat the ideal system"
            );
        }
    }

    #[test]
    fn hetero_spends_most_time_moving_data() {
        // §III-A: the hetero path is dominated by data movement. The
        // initial/final staging phases plus demand-paged SSD traffic
        // (reported under `memory`) must dwarf compute.
        let w = Workload::of(Kernel::Gemver, Scale(0.8));
        let built = w.build(params().agents);
        let out = simulate_built(SystemKind::Hetero, &built, &params());
        let f = out.breakdown.fractions();
        let movement = f[1] + f[3] + f[4];
        let compute = f[2];
        assert!(
            movement > 5.0 * compute,
            "movement {movement:.2} vs compute {compute:.3}"
        );
    }

    #[test]
    fn integrated_tiers_order_by_cell_speed() {
        let w = tiny(Kernel::Trisolv);
        let built = w.build(params().agents);
        let slc = simulate_built(SystemKind::IntegratedSlc, &built, &params());
        let mlc = simulate_built(SystemKind::IntegratedMlc, &built, &params());
        let tlc = simulate_built(SystemKind::IntegratedTlc, &built, &params());
        assert!(slc.total_time <= mlc.total_time);
        assert!(mlc.total_time <= tlc.total_time);
    }

    #[test]
    fn incompatible_axes_are_typed_errors() {
        let p = params();
        let cases = [
            // Flash over direct load/store.
            SystemSpec {
                datapath: Datapath::DirectLoadStore,
                buffer: Buffer::None,
                ..SystemKind::Hetero.spec()
            },
            // Staged datapath without an internal buffer.
            SystemSpec {
                buffer: Buffer::None,
                ..SystemKind::Hetero.spec()
            },
            // Load/store with a page cache bolted on.
            SystemSpec {
                buffer: Buffer::DramPageCache { frames: None },
                ..SystemKind::DramLess.spec()
            },
            // DRAM behind a page interface.
            SystemSpec {
                datapath: Datapath::PageInterface,
                buffer: Buffer::DramPageCache { frames: None },
                ..SystemKind::Ideal.spec()
            },
            // A zero-frame cache.
            SystemSpec {
                buffer: Buffer::DramPageCache { frames: Some(0) },
                ..SystemKind::Hetero.spec()
            },
        ];
        for spec in cases {
            let err = build_system(&spec, &p, 1 << 20).err();
            assert!(err.is_some(), "{} should not compose", spec.display_name());
        }
    }

    #[test]
    fn malformed_params_fail_both_cell_runners_like_the_sweep() {
        let w = tiny(Kernel::Trisolv);
        let built = w.build(1);
        let cases = [
            SystemParams {
                agents: 0,
                ..params()
            },
            SystemParams {
                sample_bucket_us: 0,
                ..params()
            },
            SystemParams {
                page_bytes: 0,
                ..params()
            },
            SystemParams {
                capacity_pressure: 0.0,
                ..params()
            },
            SystemParams {
                capacity_pressure: f64::NAN,
                ..params()
            },
            // A 0- or 1-byte image offloads a 0-byte shared segment:
            // DRAM-less panics on the empty write, and PAGE-buffer's
            // page range wraps around in release builds.
            SystemParams {
                image_bytes_per_agent: 0,
                ..params()
            },
            SystemParams {
                image_bytes_per_agent: 1,
                ..params()
            },
        ];
        let pool = util::pool::Pool::new(1);
        for kind in [SystemKind::DramLess, SystemKind::PageBuffer] {
            let spec = kind.spec();
            let id = SystemId::Preset(kind);
            let systems = [(id.clone(), spec.clone())];
            for p in cases {
                let want = crate::sweep::sweep_systems_on(&pool, &systems, &[w], &p).err();
                assert!(want.is_some(), "{kind}: the sweep accepted {p:?}");
                assert_eq!(simulate_spec_as(id.clone(), &spec, &built, &p).err(), want);
                assert_eq!(simulate_spec_traced(&spec, &built, &p).err(), want);
            }
        }
    }

    #[test]
    fn custom_specs_compose_and_run() {
        // Two points Table I never built: TLC flash behind P2P DMA, and
        // a PALP-style Interleaving scheduler behind a staged PRAM path.
        let w = tiny(Kernel::Gemver);
        let built = w.build(params().agents);
        let tlc_direct = SystemSpec {
            name: None,
            medium: Medium::FlashSsd {
                cell: CellKind::Tlc,
            },
            datapath: Datapath::P2pDma,
            buffer: Buffer::DramPageCache { frames: None },
            control: Control::HardwareAutomated {
                scheduler: SchedulerKind::Final,
            },
            telemetry: None,
            faults: None,
            tier: Default::default(),
        };
        let staged_pram = SystemSpec {
            name: Some("palp-style".into()),
            medium: Medium::Pram3x,
            datapath: Datapath::P2pDma,
            buffer: Buffer::DramPageCache { frames: None },
            control: Control::HardwareAutomated {
                scheduler: SchedulerKind::Interleaving,
            },
            telemetry: None,
            faults: None,
            tier: Default::default(),
        };
        let a = simulate_spec_built(&tlc_direct, &built, &params()).unwrap();
        let b = simulate_spec_built(&staged_pram, &built, &params()).unwrap();
        assert!(a.bandwidth() > 0.0 && a.bandwidth().is_finite());
        assert!(b.bandwidth() > 0.0 && b.bandwidth().is_finite());
        assert_eq!(b.system.name(), "palp-style");
        // A TLC external SSD is no faster than the MLC preset.
        let mlc = simulate_built(SystemKind::Heterodirect, &built, &params());
        assert!(a.total_time >= mlc.total_time);
    }

    #[test]
    fn staging_follows_the_spec_datapath() {
        // The old runner staged phases 2/4 host-mediated for every
        // heterogeneous system; P2P-DMA configs must stage faster.
        let w = Workload::of(Kernel::Gemver, Scale(0.8));
        let built = w.build(params().agents);
        let h = simulate_built(SystemKind::Hetero, &built, &params());
        let hd = simulate_built(SystemKind::Heterodirect, &built, &params());
        assert!(
            hd.breakdown.staging_in < h.breakdown.staging_in,
            "P2P stage-in {} !< host-mediated stage-in {}",
            hd.breakdown.staging_in,
            h.breakdown.staging_in
        );
        assert!(hd.breakdown.staging_out < h.breakdown.staging_out);
    }
}
