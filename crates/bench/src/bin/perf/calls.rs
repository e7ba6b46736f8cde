//! Every call the benchmark makes into the simulator.
//!
//! `perf` measures the program from outside, only by timing calls into
//! its public functions, and every such call is in this file: a change
//! to the public API edits this one module. Two rules hold here:
//!
//! * no call reads the `BENCH_*` or `DRAMLESS_*` environment knobs, and
//!   the process-wide worker pool is never touched — every parallel call
//!   takes the explicit [`Pool`] the caller sized;
//! * no call reaches the trace walker (`Accelerator::run`, `run_at`,
//!   `run_jobs`): cells execute through `run_schedule_at`, the engine
//!   production sweeps use.

use std::sync::Arc;
use std::time::{Duration, Instant};

use accel::exec::{AccelConfig, Accelerator};
use accel::sched::MemSchedule;
use dramless::analytic::ExecModel;
use dramless::replay;
use dramless::system::{build_system, simulate_spec_as, ComposedSystem};
use dramless::{
    ArrivalGen, ArrivalProcess, BalancerKind, ClassMix, FaultPlan, FidelityTier, FleetSpec,
    Recording, RunOutcome, SystemId, SystemKind, SystemParams, SystemSpec, TelemetrySpec,
};
use sim_core::energy::EnergyBook;
use sim_core::fault::FaultCounters;
use sim_core::mem::{Access, MemoryBackend, StreamOp};
use sim_core::probe::{AttrScope, Probe};
use sim_core::snapshot::{SnapshotError, StateImage};
use sim_core::time::Picos;
use util::json::{FromJson, ToJson};
use util::telemetry::MetricSet;
use workloads::suite::BuiltWorkload;
use workloads::{Kernel, Scale, Workload};

pub use dramless::{FleetReport, SuiteResult};
pub use util::fingerprint::fnv1a;
pub use util::json::Json;
pub use util::pool::Pool;
pub use util::rng::stream_seed;

/// A worker pool of `threads` execution contexts, the caller included.
pub fn pool(threads: usize) -> Pool {
    Pool::new(threads)
}

/// Metric-name slugs of the 11 evaluated presets, in `SystemKind::EVALUATED`
/// order (the Fig. 15–17 x-axis).
pub const PRESET_SLUGS: [&str; 11] = [
    "hetero",
    "heterodirect",
    "hetero-pram",
    "heterodirect-pram",
    "nor-intf",
    "integrated-slc",
    "integrated-mlc",
    "integrated-tlc",
    "page-buffer",
    "dramless-fw",
    "dramless",
];

/// Position of the proposed design in [`PRESET_SLUGS`].
pub const DRAMLESS: usize = 10;
/// Position of the Hetero baseline in [`PRESET_SLUGS`].
pub const HETERO: usize = 0;

/// The kernels of the tail-forensics workflow: read-heavy (gemver,
/// trisolv), write-heavy (lu, seidel) and a stencil (jaco2d).
const FORENSICS_KERNELS: [Kernel; 5] = [
    Kernel::Gemver,
    Kernel::Trisolv,
    Kernel::Lu,
    Kernel::Seidel,
    Kernel::Jaco2d,
];

/// A `presets × kernels` grid with the parameters every cell runs under.
#[derive(Debug, Clone)]
pub struct Grid {
    systems: Vec<(SystemId, SystemSpec)>,
    workloads: Vec<Workload>,
    params: SystemParams,
}

impl Grid {
    /// The paper's evaluation: the 11 evaluated presets × the 15 kernels
    /// at `Scale(1.0)` on the accurate tier, PRAM seeded with `seed`.
    pub fn paper(seed: u64) -> Grid {
        Grid {
            systems: SystemKind::EVALUATED
                .iter()
                .map(|&k| (SystemId::Preset(k), k.spec()))
                .collect(),
            workloads: Workload::suite(Scale(1.0)),
            params: SystemParams {
                seed,
                ..SystemParams::default()
            },
        }
    }

    /// The 11 presets × the 5 forensics kernels at `Scale(1.0)`, with a
    /// seeded fault plan armed and, when `attributed`, per-request
    /// latency attribution on.
    pub fn forensics(seed: u64, fault_seed: u64, attributed: bool) -> Grid {
        let mut grid = Grid::paper(seed);
        grid.workloads = FORENSICS_KERNELS
            .iter()
            .map(|&k| Workload::of(k, Scale(1.0)))
            .collect();
        for (_, spec) in &mut grid.systems {
            spec.faults = Some(FaultPlan::seeded(fault_seed));
            spec.telemetry = attributed.then(|| TelemetrySpec {
                attribution: true,
                ..TelemetrySpec::default()
            });
        }
        grid
    }

    /// The same grid on the analytic tier.
    pub fn analytic(mut self) -> Grid {
        for (_, spec) in &mut self.systems {
            spec.tier = FidelityTier::Analytic;
        }
        self
    }

    /// The same grid at another working-set to buffer-capacity ratio.
    pub fn at_pressure(mut self, capacity_pressure: f64) -> Grid {
        self.params.capacity_pressure = capacity_pressure;
        self
    }

    /// Cells in the grid.
    pub fn cells(&self) -> usize {
        self.systems.len() * self.workloads.len()
    }

    /// Kernels (rows) in the grid.
    pub fn kernels(&self) -> usize {
        self.workloads.len()
    }

    /// The inputs of cell `(preset, kernel)`, the kernel's traces
    /// fetched from the process-wide build cache.
    pub fn cell(&self, preset: usize, kernel: usize) -> Cell {
        let (id, spec) = self.systems[preset].clone();
        Cell {
            id,
            spec,
            built: self.workloads[kernel].build_cached(self.params.agents),
            params: self.params,
        }
    }

    /// The grid's kernel `kernel` at `Scale(1.0)`, built afresh (no cache).
    pub fn build_kernel(&self, kernel: usize) -> BuiltWorkload {
        self.workloads[kernel].build(self.params.agents)
    }
}

/// Sweeps every cell of `grid` on `pool` (`dramless::sweep`).
pub fn sweep(pool: &Pool, grid: &Grid) -> Result<SuiteResult, String> {
    dramless::sweep::sweep_systems_on(pool, &grid.systems, &grid.workloads, &grid.params)
        .map(|(result, _)| result)
        .map_err(|e| e.to_string())
}

/// A sweep report's JSON text, the bytes the determinism checks compare.
pub fn report_json(result: &SuiteResult) -> String {
    result.to_json()
}

/// Simulated total time of every cell, in grid order, in nanoseconds.
pub fn cell_times_ns(result: &SuiteResult) -> Vec<f64> {
    result
        .outcomes
        .iter()
        .map(|o| o.total_time.as_ns_f64())
        .collect()
}

/// The five headline ratios the paper reports, in this order: DRAM-less
/// bandwidth over Hetero, over Heterodirect, over the firmware variant,
/// over PAGE-buffer (geometric means over kernels), and DRAM-less
/// energy relative to Heterodirect.
pub fn headline_ratios(result: &SuiteResult) -> [f64; 5] {
    use SystemKind::*;
    [
        result.mean_normalized_bandwidth(DramLess, Hetero),
        result.mean_normalized_bandwidth(DramLess, Heterodirect),
        result.mean_normalized_bandwidth(DramLess, DramLessFirmware),
        result.mean_normalized_bandwidth(DramLess, PageBuffer),
        result.mean_relative_energy(DramLess, Heterodirect),
    ]
}

/// The DRAM-less cell of an attributed sweep that holds the worst
/// exec-phase request: the kernel row and the request's index.
pub fn worst_dramless_exec(result: &SuiteResult, grid: &Grid) -> Option<(usize, u64)> {
    let presets = grid.systems.len();
    let mut worst: Option<(u64, usize, u64)> = None;
    for (slot, outcome) in result.outcomes.iter().enumerate() {
        if outcome.system != SystemKind::DramLess {
            continue;
        }
        if let Some((dur, index)) = worst_exec(outcome) {
            if worst.is_none_or(|(d, _, _)| dur > d) {
                worst = Some((dur, slot / presets, index));
            }
        }
    }
    worst.map(|(_, kernel, index)| (kernel, index))
}

/// The worst exec-phase request of an attributed cell: its duration in
/// ps and its request index.
pub fn worst_exec(outcome: &RunOutcome) -> Option<(u64, u64)> {
    let mut worst: Option<(u64, u64)> = None;
    for top in outcome.attr.as_ref()?.top.iter() {
        if top.scope == AttrScope::Exec && worst.is_none_or(|(d, _)| top.dur_ps > d) {
            worst = Some((top.dur_ps, top.index));
        }
    }
    worst
}

/// Checkpoint cadence of every recording, in backend requests.
const CHECKPOINT_EVERY: u64 = 1024;

/// Records the DRAM-less cell of `grid`'s kernel row `kernel`, with a
/// checkpoint every [`CHECKPOINT_EVERY`] backend requests.
pub fn record(grid: &Grid, kernel: usize) -> Result<Recording, String> {
    replay::record_run(
        &grid.systems[DRAMLESS..=DRAMLESS],
        &grid.workloads[kernel..=kernel],
        &grid.params,
        CHECKPOINT_EVERY,
    )
    .map_err(|e| e.to_string())
}

/// A recording as JSON text.
pub fn encode_recording(rec: &Recording) -> String {
    rec.to_json_string()
}

/// Parses a recording back from JSON text.
pub fn decode_recording(text: &str) -> Result<Recording, String> {
    Recording::from_json_str(text).map_err(|e| e.to_string())
}

/// Re-verifies every cell of a recording from its first checkpoint.
pub fn verify(rec: &Recording) -> Result<(), String> {
    let reports = replay::verify(rec).map_err(|e| e.to_string())?;
    match reports.iter().find(|r| !r.completed) {
        Some(r) => Err(format!("{}: verification stopped early", r.cell)),
        None => Ok(()),
    }
}

/// Replays the one-request window `[index, index + 1)` of the first cell.
pub fn replay_request(rec: &Recording, index: u64) -> Result<(), String> {
    replay::replay(rec, 0, index..index + 1)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Restore points in a recording.
pub fn checkpoints(rec: &Recording) -> usize {
    rec.cells.iter().map(|c| c.checkpoints.len()).sum()
}

/// Requests offered by the `fleet-burst` cell.
pub const FLEET_REQUESTS: u64 = 500_000;

/// The `fleet-burst` serving cell: 8 DRAM-less accelerators × 2 slots,
/// 1024 tenants over all 15 kernels at `Scale(0.1)`, QoS-aware admission
/// at 25 ms, an erase window every 256 KiB written, and bursty arrivals
/// that overload the fleet during bursts.
pub fn fleet_burst(seed: u64) -> FleetSpec {
    FleetSpec {
        name: Some("fleet-burst".to_string()),
        system: SystemKind::DramLess.spec(),
        accelerators: 8,
        slots_per_accel: 2,
        balancer: BalancerKind::QosAware,
        tenants: 1024,
        class_mix: ClassMix::default(),
        arrivals: ArrivalProcess::Bursty {
            base_per_s: 6_000.0,
            burst_per_s: 60_000.0,
            mean_burst_ms: 20.0,
            mean_calm_ms: 80.0,
        },
        kernels: Kernel::ALL.to_vec(),
        scale: 0.1,
        agents: 2,
        seed,
        requests: FLEET_REQUESTS,
        duration_ms: 0,
        admit_ms: 25.0,
        erase_every_kb: 256,
    }
}

/// Serves a fleet cell on `pool` (`dramless::run_fleet_on`).
pub fn serve(pool: &Pool, spec: &FleetSpec) -> Result<FleetReport, String> {
    dramless::run_fleet_on(pool, spec).map_err(|e| e.to_string())
}

/// A fleet report's JSON text.
pub fn fleet_json(report: &FleetReport) -> String {
    report.to_json_string()
}

/// Checks that a fleet report parses back from its JSON and
/// re-serializes to the same bytes.
pub fn fleet_round_trip(report: &FleetReport) -> Result<(), String> {
    let text = report.to_json_string();
    let back = FleetReport::from_json_str(&text).map_err(|e| e.to_string())?;
    if back.to_json_string() == text {
        Ok(())
    } else {
        Err("fleet report changed across a JSON round trip".to_string())
    }
}

/// The fleet report's conservation ledger check.
pub fn conservation(report: &FleetReport) -> Result<(), String> {
    report.check_conservation()
}

/// Requests a fleet run offered.
pub fn fleet_offered(report: &FleetReport) -> u64 {
    report.offered
}

/// Simulated serving outcome: the rejected and degraded shares of
/// offered requests and the p99.9 latency in milliseconds.
pub fn fleet_outcome(report: &FleetReport) -> (f64, f64, f64) {
    let offered = report.offered.max(1) as f64;
    (
        report.rejected as f64 / offered,
        report.degraded as f64 / offered,
        report.aggregate.quantile_ns(0.999) as f64 / 1e6,
    )
}

/// Generates a fleet cell's offered traffic the way its serving loop
/// does (`ArrivalGen::next_arrival` + `TenantModel::request` per
/// request); returns a checksum so the work cannot be optimized away.
pub fn generate_traffic(spec: &FleetSpec) -> Result<u64, String> {
    let model = spec.tenant_model().map_err(|e| e.to_string())?;
    let mut arrivals = ArrivalGen::new(spec.arrivals, spec.seed).map_err(|e| e.to_string())?;
    let mut sum = 0u64;
    for seq in 0..spec.requests {
        let req = model.request(seq, arrivals.next_arrival());
        sum = sum.wrapping_add(u64::from(req.tenant) ^ req.at.as_ps());
    }
    Ok(sum)
}

/// Prices every kernel of a fleet cell the way the fleet does: an
/// uncached build at the fleet's scale, then the analytic model.
pub fn price_fleet_kernels(spec: &FleetSpec) -> Result<u64, String> {
    let params = spec.params();
    let cfg = accel_config(&params);
    let mut sum = 0u64;
    for &kernel in &spec.kernels {
        let built = Workload::of(kernel, Scale(spec.scale)).build(params.agents);
        let model =
            ExecModel::for_spec(&spec.system, &built, &params).map_err(|e| e.to_string())?;
        sum = sum.wrapping_add(model.exec(&cfg).total_time.as_ps());
    }
    Ok(sum)
}

/// The inputs of one `(preset, kernel)` cell.
pub struct Cell {
    id: SystemId,
    spec: SystemSpec,
    built: Arc<BuiltWorkload>,
    params: SystemParams,
}

/// The accelerator configuration the runner executes cells under.
fn accel_config(params: &SystemParams) -> AccelConfig {
    AccelConfig {
        pes: params.agents + 1,
        sample_bucket: Picos::from_us(params.sample_bucket_us),
        ..AccelConfig::default()
    }
}

/// A memory backend that serves every request at a fixed latency: the
/// replay engine's own cost, with no memory model behind it.
struct FixedLatency;

impl MemoryBackend for FixedLatency {
    fn read(&mut self, at: Picos, _addr: u64, _len: u32) -> Access {
        Access {
            start: at,
            end: at + Picos::from_ns(100),
        }
    }

    fn write(&mut self, at: Picos, _addr: u64, _len: u32) -> Access {
        Access {
            start: at,
            end: at + Picos::from_ns(150),
        }
    }

    fn energy(&self) -> EnergyBook {
        EnergyBook::new()
    }

    fn label(&self) -> &'static str {
        "fixed-latency"
    }
}

/// Delegates to a backend and adds up the wall time spent inside its
/// request calls, so a replay's backend share is measured where it is
/// spent rather than inferred by subtraction.
struct Timed<'a> {
    inner: &'a mut dyn MemoryBackend,
    busy: Duration,
}

impl Timed<'_> {
    fn time<T>(&mut self, f: impl FnOnce(&mut dyn MemoryBackend) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut *self.inner);
        self.busy += start.elapsed();
        out
    }
}

impl MemoryBackend for Timed<'_> {
    fn read(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        self.time(|b| b.read(at, addr, len))
    }

    fn write(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        self.time(|b| b.write(at, addr, len))
    }

    fn announce_overwrites(&mut self, at: Picos, addrs: &[u64]) {
        self.time(|b| b.announce_overwrites(at, addrs))
    }

    fn run_stream(
        &mut self,
        now: Picos,
        line: u32,
        xbar: Picos,
        ops: &[StreamOp],
        wq: &mut [Picos],
    ) -> Picos {
        self.time(|b| b.run_stream(now, line, xbar, ops, wq))
    }

    fn energy(&self) -> EnergyBook {
        self.inner.energy()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn set_probe(&mut self, probe: Probe) {
        self.inner.set_probe(probe)
    }

    fn probe(&self) -> &Probe {
        self.inner.probe()
    }

    fn collect_metrics(&self, out: &mut MetricSet) {
        self.inner.collect_metrics(out)
    }

    fn collect_faults(&self, out: &mut FaultCounters) {
        self.inner.collect_faults(out)
    }

    fn tier(&self) -> FidelityTier {
        self.inner.tier()
    }

    fn snapshot_state(&self) -> Result<StateImage, SnapshotError> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        self.inner.restore_state(image)
    }
}

/// What one schedule replay issued and where its time went.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Backend requests issued.
    pub requests: u64,
    /// Seconds spent inside the backend's request calls.
    pub backend_s: f64,
}

impl Cell {
    /// Derives the cell's memory schedule afresh (`MemSchedule::build`).
    pub fn build_schedule(&self) -> MemSchedule {
        let cfg = accel_config(&self.params);
        MemSchedule::build(&self.built.traces, cfg.l1, cfg.l2)
    }

    /// The cell's memoized schedule, as the runner fetches it.
    pub fn schedule(&self) -> Arc<MemSchedule> {
        let cfg = accel_config(&self.params);
        workloads::cache::schedule_for(&self.built, cfg.l1, cfg.l2)
    }

    /// Replays `sched` over a fixed-latency backend.
    pub fn replay_fixed(&self, sched: &MemSchedule) -> Replay {
        self.replay(sched, &mut FixedLatency)
    }

    /// Composes the cell's system (`build_system`).
    pub fn compose(&self) -> Result<ComposedSystem, String> {
        build_system(&self.spec, &self.params, self.built.character.footprint)
            .map_err(|e| e.to_string())
    }

    /// Replays `sched` over a composed system's execution backend.
    pub fn replay_on(&self, sys: &mut ComposedSystem, sched: &MemSchedule) -> Replay {
        self.replay(sched, sys.backend.as_mut())
    }

    fn replay(&self, sched: &MemSchedule, backend: &mut dyn MemoryBackend) -> Replay {
        let accel = Accelerator::new(accel_config(&self.params));
        let mut timed = Timed {
            inner: backend,
            busy: Duration::ZERO,
        };
        let requests = accel
            .run_schedule_at(Picos::ZERO, sched, &mut timed)
            .mem_requests;
        Replay {
            requests,
            backend_s: timed.busy.as_secs_f64(),
        }
    }

    /// Runs the whole cell (`simulate_spec_as`).
    pub fn simulate(&self) -> Result<RunOutcome, String> {
        simulate_spec_as(self.id.clone(), &self.spec, &self.built, &self.params)
            .map_err(|e| e.to_string())
    }

    /// Prices the cell on the analytic tier: builds the model, then
    /// evaluates it. Returned separately so each can be timed.
    pub fn analytic_model(&self) -> Result<ExecModel, String> {
        ExecModel::for_spec(&self.spec, &self.built, &self.params).map_err(|e| e.to_string())
    }

    /// Evaluates an analytic model; returns the simulated time in ps.
    pub fn analytic_exec(&self, model: &ExecModel) -> u64 {
        model.exec(&accel_config(&self.params)).total_time.as_ps()
    }
}

/// Hits over lookups of the process-wide memoized schedule table.
pub fn schedule_hit_ratio() -> f64 {
    let s = workloads::cache::stats();
    s.schedule_hits as f64 / (s.schedule_hits + s.schedule_misses).max(1) as f64
}
