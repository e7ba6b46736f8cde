//! `perf-trajectory` — the CI performance-trajectory artifact.
//!
//! Runs the smoke sweep (every Table I preset × the full kernel suite
//! at `DRAMLESS_SCALE`) on **both fidelity tiers** and writes one JSON
//! snapshot per CI run — `BENCH_<date>.json` — recording what the
//! repository's simulation throughput looked like on that day:
//!
//! * per tier: trace-build and cell-execution wall-clock, cells/second;
//! * the analytic ÷ accurate cells/second speedup;
//! * the tiers' *fidelity* delta over the whole grid (geometric-mean
//!   and worst-case drift of total time and energy), so a calibration
//!   regression shows up in the trajectory next to a throughput one.
//!
//! CI uploads the file as an artifact; comparing artifacts across runs
//! gives the perf trajectory without committing measurements to git.
//!
//! ```sh
//! perf-trajectory BENCH_$(date -u +%F).json $(date -u +%F)
//! ```

use dramless::analytic::{axes_key, CalibrationTable};
use dramless::{FidelityTier, SuiteResult, SystemId, SystemKind, SystemSpec};
use util::json::ToJson;
use workloads::{Scale, Workload};

/// One tier's throughput numbers.
#[derive(Debug, Clone, PartialEq)]
struct TierRow {
    /// `"accurate"` or `"analytic"`.
    tier: String,
    /// Worker threads this row's sweep ran on.
    threads: u64,
    /// Trace-build phase wall-clock (ns) — near-zero when warm.
    build_ns: u64,
    /// Cell-execution wall-clock (ns).
    execute_ns: u64,
    /// Cells per second of execution wall-clock.
    cells_per_sec: f64,
}

util::json_struct!(TierRow {
    tier,
    threads,
    build_ns,
    execute_ns,
    cells_per_sec
});

/// One preset's tier agreement against its committed calibration bound —
/// the per-preset breakdown of the global [`FidelityDelta`], so a drift
/// regression names the responsible preset instead of hiding inside the
/// grid-wide max.
#[derive(Debug, Clone, PartialEq)]
struct PresetDelta {
    /// Preset label (Table I name).
    preset: String,
    /// Calibration axes key the bounds come from.
    key: String,
    /// Worst |analytic/accurate − 1| for total time over the suite.
    max_time_drift: f64,
    /// Worst |analytic/accurate − 1| for total energy over the suite.
    max_energy_drift: f64,
    /// Committed fractional bound on time drift (calibration.json).
    time_bound: f64,
    /// Committed fractional bound on energy drift (calibration.json).
    energy_bound: f64,
    /// Whether both drifts sit within their committed bounds.
    within_bounds: bool,
}

util::json_struct!(PresetDelta {
    preset,
    key,
    max_time_drift,
    max_energy_drift,
    time_bound,
    energy_bound,
    within_bounds
});

/// How far the analytic tier's physics drifted from the accurate
/// tier's, over every cell of the grid.
#[derive(Debug, Clone, PartialEq)]
struct FidelityDelta {
    /// Geometric mean of analytic/accurate total-time ratios.
    geomean_time_ratio: f64,
    /// Worst |ratio − 1| for total time.
    max_time_drift: f64,
    /// Geometric mean of analytic/accurate total-energy ratios.
    geomean_energy_ratio: f64,
    /// Worst |ratio − 1| for total energy.
    max_energy_drift: f64,
}

util::json_struct!(FidelityDelta {
    geomean_time_ratio,
    max_time_drift,
    geomean_energy_ratio,
    max_energy_drift
});

/// The whole artifact.
#[derive(Debug, Clone, PartialEq)]
struct TrajectoryReport {
    /// Artifact schema version.
    schema: u64,
    /// Date label supplied by the caller (CI passes `date -u +%F`).
    date: String,
    /// `config × workload` cells per tier.
    cells: u64,
    /// Worker threads the sweeps ran on.
    threads: u64,
    /// Throughput per tier (plus a multi-threaded accurate row for the
    /// parallel-scaling trajectory).
    tiers: Vec<TierRow>,
    /// Analytic ÷ accurate cells/second (both at `threads`).
    analytic_speedup: f64,
    /// Tier agreement over the grid.
    fidelity: FidelityDelta,
    /// Per-preset tier agreement vs committed calibration bounds.
    presets: Vec<PresetDelta>,
}

util::json_struct!(TrajectoryReport {
    schema,
    date,
    cells,
    threads,
    tiers,
    analytic_speedup,
    fidelity,
    presets
});

fn tier_specs(tier: FidelityTier) -> Vec<(SystemId, SystemSpec)> {
    SystemKind::EVALUATED
        .iter()
        .map(|&k| (SystemId::Preset(k), SystemSpec { tier, ..k.spec() }))
        .collect()
}

fn fidelity(acc: &SuiteResult, ana: &SuiteResult) -> FidelityDelta {
    let mut d = FidelityDelta {
        geomean_time_ratio: 0.0,
        max_time_drift: 0.0,
        geomean_energy_ratio: 0.0,
        max_energy_drift: 0.0,
    };
    let mut n = 0u32;
    for (a, b) in acc.outcomes.iter().zip(&ana.outcomes) {
        assert_eq!((&a.system, a.kernel), (&b.system, b.kernel), "grid order");
        let t = b.total_time.as_ns_f64() / a.total_time.as_ns_f64();
        let e = b.total_energy().as_j() / a.total_energy().as_j();
        d.geomean_time_ratio += t.ln();
        d.geomean_energy_ratio += e.ln();
        d.max_time_drift = d.max_time_drift.max((t - 1.0).abs());
        d.max_energy_drift = d.max_energy_drift.max((e - 1.0).abs());
        n += 1;
    }
    d.geomean_time_ratio = (d.geomean_time_ratio / n.max(1) as f64).exp();
    d.geomean_energy_ratio = (d.geomean_energy_ratio / n.max(1) as f64).exp();
    d
}

fn preset_deltas(acc: &SuiteResult, ana: &SuiteResult) -> Vec<PresetDelta> {
    SystemKind::EVALUATED
        .iter()
        .map(|&kind| {
            let key = axes_key(&kind.spec());
            let entry = CalibrationTable::embedded()
                .lookup(&key)
                .unwrap_or_else(|| panic!("no calibration entry for {key}"));
            let mut max_t = 0.0f64;
            let mut max_e = 0.0f64;
            for (a, b) in acc.outcomes.iter().zip(&ana.outcomes) {
                if a.system != SystemId::Preset(kind) {
                    continue;
                }
                let t = b.total_time.as_ns_f64() / a.total_time.as_ns_f64();
                let e = b.total_energy().as_j() / a.total_energy().as_j();
                max_t = max_t.max((t - 1.0).abs());
                max_e = max_e.max((e - 1.0).abs());
            }
            PresetDelta {
                preset: kind.label().to_string(),
                key,
                max_time_drift: max_t,
                max_energy_drift: max_e,
                time_bound: entry.time_bound,
                energy_bound: entry.energy_bound,
                within_bounds: max_t <= entry.time_bound && max_e <= entry.energy_bound,
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("BENCH_report.json");
    let date = args.get(1).cloned().unwrap_or_else(|| "unlabeled".into());

    let workloads = Workload::suite(Scale::from_env());
    let params = dramless::SystemParams::default();

    let mut tiers = Vec::new();
    let mut results = Vec::new();
    for (label, tier) in [
        ("accurate", FidelityTier::Accurate),
        ("analytic", FidelityTier::Analytic),
    ] {
        let (result, stats) = dramless::sweep::sweep_systems_on(
            util::pool::global(),
            &tier_specs(tier),
            &workloads,
            &params,
        )
        .expect("every Table I preset composes");
        println!(
            "{label}: {} cells in {:.3}s ({:.1} cells/s, build {:.3}s)",
            stats.cells,
            stats.execute.as_secs_f64(),
            stats.cells_per_sec(),
            stats.build.as_secs_f64(),
        );
        tiers.push(TierRow {
            tier: label.into(),
            threads: stats.threads as u64,
            build_ns: stats.build.as_nanos() as u64,
            execute_ns: stats.execute.as_nanos() as u64,
            cells_per_sec: stats.cells_per_sec(),
        });
        results.push((result, stats));
    }

    // Parallel-scaling row: the accurate grid again on a 4-thread pool
    // (the caches are warm, so this measures cell execution, which is
    // exactly what the scaling trajectory should watch).
    {
        let pool = util::pool::Pool::new(4);
        let (_, stats) = dramless::sweep::sweep_systems_on(
            &pool,
            &tier_specs(FidelityTier::Accurate),
            &workloads,
            &params,
        )
        .expect("every Table I preset composes");
        println!(
            "accurate x{}: {} cells in {:.3}s ({:.1} cells/s)",
            stats.threads,
            stats.cells,
            stats.execute.as_secs_f64(),
            stats.cells_per_sec(),
        );
        tiers.push(TierRow {
            tier: "accurate".into(),
            threads: stats.threads as u64,
            build_ns: stats.build.as_nanos() as u64,
            execute_ns: stats.execute.as_nanos() as u64,
            cells_per_sec: stats.cells_per_sec(),
        });
    }

    let report = TrajectoryReport {
        schema: 2,
        date,
        cells: results[0].1.cells as u64,
        threads: results[0].1.threads as u64,
        analytic_speedup: tiers[1].cells_per_sec / tiers[0].cells_per_sec,
        fidelity: fidelity(&results[0].0, &results[1].0),
        presets: preset_deltas(&results[0].0, &results[1].0),
        tiers,
    };
    println!(
        "analytic speedup {:.1}x; fidelity: time geomean {:.3} (max drift {:.1}%), \
         energy geomean {:.3} (max drift {:.1}%)",
        report.analytic_speedup,
        report.fidelity.geomean_time_ratio,
        report.fidelity.max_time_drift * 100.0,
        report.fidelity.geomean_energy_ratio,
        report.fidelity.max_energy_drift * 100.0,
    );
    for p in &report.presets {
        if !p.within_bounds {
            println!(
                "WARNING: {} drift exceeds its committed calibration bound — \
                 time {:.1}% (bound {:.1}%), energy {:.1}% (bound {:.1}%)",
                p.preset,
                p.max_time_drift * 100.0,
                p.time_bound * 100.0,
                p.max_energy_drift * 100.0,
                p.energy_bound * 100.0,
            );
        }
    }
    std::fs::write(out_path, report.to_json_pretty())
        .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("trajectory written to {out_path}");
}
