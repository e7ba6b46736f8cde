//! The sweep engine.
//!
//! A full evaluation is a `config × workload` grid — 11 × 15 = 165
//! independent cells. The old driver parallelized at workload
//! granularity (15 coarse units), so wall-clock degenerated to the
//! slowest workload times all eleven configs. Here every cell is one
//! item of a [`Pool::map`] call on [`util::pool`]:
//!
//! 1. **Build phase** — each workload's traces are built (or fetched
//!    from the process-wide [`workloads::cache`]) in parallel, handing
//!    out shared `Arc<BuiltWorkload>`s.
//! 2. **Cell phase** — cells are sorted by descending estimated cost
//!    (backend weight × trace ops) and start in that order from the
//!    pool's one shared cursor, so expensive configs like Hetero and
//!    Integrated-TLC start first and the tail of the sweep is short
//!    cells, not a straggler.
//!
//! Results are scattered back to workload-major × config order by
//! cell index, so the output is byte-identical to the serial sweep
//! regardless of thread count or which thread ran which cell
//! (`tests/sweep_determinism.rs` locks this in). Thread count follows
//! the pool: `DRAMLESS_THREADS` if set, else available parallelism.
//!
//! The engine is spec-driven: Table I presets go through
//! [`sweep`]/[`sweep_on`], and arbitrary [`SystemSpec`]s get the same
//! cost-ordered cells + trace cache via [`sweep_specs`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use util::pool::{global, Pool};
use workloads::suite::BuiltWorkload;
use workloads::Workload;

use crate::config::{SystemId, SystemKind, SystemParams};
use crate::report::{RunOutcome, SuiteResult};
use crate::spec::{Control, Datapath, Medium, SpecError, SystemSpec};
use crate::system::{build_system, simulate_spec_as};
use flash::CellKind;

/// Wall-clock accounting for one sweep, with the one-time trace-build
/// phase split out from cell execution: trace building is amortised by
/// the process-wide cache (a second sweep pays ~zero), so folding it
/// into cells/second understates steady-state throughput.
#[derive(Debug, Clone, Copy)]
pub struct SweepStats {
    /// `config × workload` cells simulated.
    pub cells: usize,
    /// End-to-end sweep wall-clock (build phase + cell phase).
    pub elapsed: Duration,
    /// Trace-build phase only (cache hits make this near-zero on
    /// repeated sweeps).
    pub build: Duration,
    /// Cell-execution phase only — what cells/second is computed from.
    pub execute: Duration,
    /// Worker threads (including the caller) that executed it.
    pub threads: usize,
}

impl SweepStats {
    /// Simulated cells per second of *execution* wall-clock (excluding
    /// the one-time trace-build phase).
    pub fn cells_per_sec(&self) -> f64 {
        let s = self.execute.as_secs_f64();
        if s > 0.0 {
            self.cells as f64 / s
        } else {
            f64::INFINITY
        }
    }
}

/// Relative simulation cost of one cell on `spec`, from measured sweep
/// profiles: heterogeneous staging and dense flash dominate; the
/// load/store PRAM designs are cheap. Only the *ordering* matters —
/// a wrong weight costs schedule quality, never correctness.
fn spec_weight(spec: &SystemSpec) -> u64 {
    if spec.tier == crate::FidelityTier::Analytic {
        // Closed-form cells cost roughly the same tiny amount regardless
        // of medium — schedule them last so accurate cells start first.
        return 1;
    }
    match (spec.medium, spec.datapath) {
        (Medium::IntegratedFlash { cell }, _) => match cell {
            CellKind::Tlc => 10,
            CellKind::Mlc => 8,
            CellKind::Slc => 6,
        },
        (Medium::FlashSsd { .. }, Datapath::HostMediated) => 8,
        (Medium::FlashSsd { .. }, _) => 6,
        (Medium::NorPram, _) => 5,
        (Medium::PramSsd, _) => 4,
        (Medium::Pram3x, Datapath::HostMediated | Datapath::P2pDma) => 4,
        (Medium::Pram3x, Datapath::PageInterface) => 3,
        (Medium::Pram3x, Datapath::DirectLoadStore) => match spec.control {
            Control::Firmware { .. } => 3,
            Control::HardwareAutomated { .. } => 2,
        },
        (Medium::Dram, _) => 1,
    }
}

/// Sweeps `kinds × workloads` on the global pool.
///
/// Output order (workload-major, then `kinds` order) and content are
/// identical to the serial nested loop, at any thread count.
pub fn sweep(kinds: &[SystemKind], workloads: &[Workload], params: &SystemParams) -> SuiteResult {
    sweep_on(global(), kinds, workloads, params).0
}

/// Sweeps on an explicit pool (the determinism test runs the same grid
/// on a 1-thread and an N-thread pool and diffs the JSON).
pub fn sweep_on(
    pool: &Pool,
    kinds: &[SystemKind],
    workloads: &[Workload],
    params: &SystemParams,
) -> (SuiteResult, SweepStats) {
    let systems: Vec<(SystemId, SystemSpec)> = kinds
        .iter()
        .map(|&k| (SystemId::Preset(k), k.spec()))
        .collect();
    sweep_systems_on(pool, &systems, workloads, params).expect("every Table I preset composes")
}

/// Sweeps arbitrary specs × workloads on the global pool, reporting each
/// spec under its display name.
///
/// # Errors
///
/// Returns [`SpecError`] if a spec's axes are incompatible or a cell's
/// tier refuses its spec (see [`sweep_systems_on`]).
pub fn sweep_specs(
    specs: &[SystemSpec],
    workloads: &[Workload],
    params: &SystemParams,
) -> Result<SuiteResult, SpecError> {
    sweep_specs_on(global(), specs, workloads, params).map(|(r, _)| r)
}

/// Like [`sweep_specs`] on an explicit pool, with wall-clock stats.
///
/// # Errors
///
/// Returns [`SpecError`] if a spec's axes are incompatible or a cell's
/// tier refuses its spec.
pub fn sweep_specs_on(
    pool: &Pool,
    specs: &[SystemSpec],
    workloads: &[Workload],
    params: &SystemParams,
) -> Result<(SuiteResult, SweepStats), SpecError> {
    let systems: Vec<(SystemId, SystemSpec)> = specs
        .iter()
        .map(|s| (SystemId::Custom(s.display_name()), s.clone()))
        .collect();
    sweep_systems_on(pool, &systems, workloads, params)
}

/// The general engine: any `(identity, spec)` list × workloads.
///
/// The parameters and every spec (with a probe [`build_system`]) are
/// validated before any cell runs, so a malformed input fails
/// the whole call up front instead of panicking a worker mid-sweep.
///
/// # Errors
///
/// Returns [`SpecError`] if the parameters are malformed, any spec's
/// axes are incompatible, or a cell's tier refuses its spec (the
/// analytic tier with faults armed or no calibration entry); the
/// error names the first such cell in output order.
pub fn sweep_systems_on(
    pool: &Pool,
    systems: &[(SystemId, SystemSpec)],
    workloads: &[Workload],
    params: &SystemParams,
) -> Result<(SuiteResult, SweepStats), SpecError> {
    let start = Instant::now();
    params.validate()?;
    for (id, spec) in systems {
        build_system(spec, params, params.page_bytes as u64)
            .map_err(|e| SpecError::new(format!("{}: {}", id.name(), e.message())))?;
    }

    // Phase 1: build every workload's traces in parallel, via the
    // process-wide cache so repeated sweeps reuse them.
    let built: Vec<Arc<BuiltWorkload>> = pool.map(workloads, |w| w.build_cached(params.agents));
    let built_at = Instant::now();

    // Phase 2: one item per cell, cost-descending. A cell is its slot
    // in the canonical workload-major output order.
    let n = systems.len();
    let mut order: Vec<(u64, usize)> = Vec::with_capacity(built.len() * n);
    for (wi, b) in built.iter().enumerate() {
        let ops = b.character.loads + b.character.stores + b.character.instructions / 64;
        for (si, (_, spec)) in systems.iter().enumerate() {
            order.push((spec_weight(spec) * ops.max(1), wi * n + si));
        }
    }
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let ran = pool.map(&order, |&(_, slot)| {
        let (id, spec) = &systems[slot % n];
        simulate_spec_as(id.clone(), spec, &built[slot / n], params)
            .map_err(|e| SpecError::new(format!("{}: {}", id.name(), e.message())))
    });

    // Scatter back to canonical order, independent of who ran what. A
    // cell its tier refuses fails the sweep with the first such cell in
    // that order, so the error is the same at any thread count.
    let mut outcomes: Vec<Option<Result<RunOutcome, SpecError>>> =
        (0..order.len()).map(|_| None).collect();
    for (outcome, (_, slot)) in ran.into_iter().zip(order) {
        outcomes[slot] = Some(outcome);
    }
    let result = SuiteResult {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every cell simulated exactly once"))
            .collect::<Result<_, _>>()?,
    };
    let stats = SweepStats {
        cells: result.outcomes.len(),
        elapsed: start.elapsed(),
        build: built_at - start,
        execute: built_at.elapsed(),
        threads: pool.threads(),
    };
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::simulate_built;
    use workloads::{Kernel, Scale};

    fn kind_weight(kind: SystemKind) -> u64 {
        spec_weight(&kind.spec())
    }

    #[test]
    fn sweep_matches_serial_nested_loop() {
        let kinds = [SystemKind::DramLess, SystemKind::NorIntf];
        let workloads: Vec<Workload> = [Kernel::Trisolv, Kernel::Durbin]
            .iter()
            .map(|&k| Workload::of(k, Scale(0.1)))
            .collect();
        let params = SystemParams {
            agents: 2,
            ..Default::default()
        };

        let mut serial = SuiteResult::default();
        for w in &workloads {
            let b = w.build(params.agents);
            for &k in &kinds {
                serial.outcomes.push(simulate_built(k, &b, &params));
            }
        }

        let pool = Pool::new(3);
        let (swept, stats) = sweep_on(&pool, &kinds, &workloads, &params);
        assert_eq!(stats.cells, 4);
        assert_eq!(swept.to_json(), serial.to_json());
    }

    #[test]
    fn every_kind_has_a_weight_order() {
        // The exact weights are heuristic; the invariant worth pinning
        // is that the proposed design is scheduled as cheaper than the
        // staging-bound and dense-flash systems it is compared against.
        assert!(kind_weight(SystemKind::Hetero) > kind_weight(SystemKind::DramLess));
        assert!(kind_weight(SystemKind::IntegratedTlc) > kind_weight(SystemKind::DramLess));
        assert!(kind_weight(SystemKind::DramLess) > kind_weight(SystemKind::Ideal));
    }

    #[test]
    fn sweep_specs_reports_display_names() {
        let spec = SystemSpec {
            name: Some("my-rig".into()),
            ..SystemKind::DramLess.spec()
        };
        let workloads = [Workload::of(Kernel::Trisolv, Scale(0.1))];
        let params = SystemParams {
            agents: 2,
            ..Default::default()
        };
        let r = sweep_specs(&[spec], &workloads, &params).unwrap();
        assert_eq!(r.outcomes.len(), 1);
        assert_eq!(r.outcomes[0].system, SystemId::Custom("my-rig".into()));
        assert!(r.get_named("my-rig", Kernel::Trisolv).is_some());
    }

    #[test]
    fn sweep_specs_rejects_malformed_specs_up_front() {
        let bad = SystemSpec {
            buffer: crate::spec::Buffer::None,
            ..SystemKind::Hetero.spec()
        };
        let workloads = [Workload::of(Kernel::Trisolv, Scale(0.1))];
        let err = sweep_specs(&[bad], &workloads, &SystemParams::default());
        assert!(err.is_err());

        let no_agents = SystemParams {
            agents: 0,
            ..SystemParams::default()
        };
        let err = sweep_specs(&[SystemKind::DramLess.spec()], &workloads, &no_agents);
        assert!(err.unwrap_err().message().contains("params.agents"));
    }
}
