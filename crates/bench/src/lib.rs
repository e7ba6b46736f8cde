//! Shared plumbing for the figure/table regeneration benches.
//!
//! Every bench target in `benches/` reproduces one table or figure of the
//! paper's evaluation: it runs the relevant sweep and prints the same
//! rows/series the paper reports (see EXPERIMENTS.md for the
//! paper-vs-measured record). `cargo bench` runs them all.

use std::sync::Arc;

use dramless::{RunOutcome, SuiteResult, SystemKind, SystemParams};
use sim_core::stats::TimeSeries;
use sim_core::Picos;
use util::bench::Harness;
use workloads::suite::BuiltWorkload;
use workloads::{Scale, Workload};

/// The evaluation scale: `DRAMLESS_SCALE` env var, default 1.0 (the
/// calibrated point).
pub fn scale() -> Scale {
    Scale::from_env()
}

/// The full 15-kernel suite at the evaluation scale.
pub fn suite() -> Vec<Workload> {
    Workload::suite(scale())
}

/// Default system parameters for every bench.
pub fn params() -> SystemParams {
    SystemParams::default()
}

/// Sweeps `kinds × workloads` on the work-stealing engine
/// ([`dramless::sweep`]): every cell is one stealable task, traces come
/// from the process-wide cache, and the output order matches the serial
/// nested loop byte-for-byte.
pub fn sweep(kinds: &[SystemKind], workloads: &[Workload]) -> SuiteResult {
    dramless::sweep::sweep(kinds, workloads, &params())
}

/// Like [`sweep`], but records the sweep wall-clock and cells/second in
/// `harness` under `name` (the line CI's sweep-regression guard reads).
///
/// Two measurements land in the report: `<name>-build` (the one-time
/// trace-build phase, near-zero when the process-wide cache is warm) and
/// `<name>` (cell execution only — what cells/second is derived from).
/// Folding the build cost into the rate would understate steady-state
/// throughput and charge the first sweep of a process for work every
/// later sweep reuses.
pub fn sweep_timed(
    harness: &mut Harness,
    name: &str,
    kinds: &[SystemKind],
    workloads: &[Workload],
) -> SuiteResult {
    let (result, stats) =
        dramless::sweep::sweep_on(util::pool::global(), kinds, workloads, &params());
    harness.record(&format!("{name}-build"), stats.build.as_nanos() as u64);
    harness.record_throughput(name, stats.cells as u64, stats.execute.as_nanos() as u64);
    result
}

/// Like [`sweep_timed`], but running every preset on the **analytic**
/// fidelity tier: same grid, same output identities
/// ([`dramless::SystemId::Preset`]), but each cell is priced by the
/// calibrated closed form instead of the cycle-accurate engine. The
/// recorded `<name>` / `<name>-build` measurements are what CI's
/// per-tier regression guard and the perf-trajectory artifact read.
pub fn sweep_timed_analytic(
    harness: &mut Harness,
    name: &str,
    kinds: &[SystemKind],
    workloads: &[Workload],
) -> SuiteResult {
    let systems: Vec<(dramless::SystemId, dramless::SystemSpec)> = kinds
        .iter()
        .map(|&k| {
            let spec = dramless::SystemSpec {
                tier: dramless::FidelityTier::Analytic,
                ..k.spec()
            };
            (dramless::SystemId::Preset(k), spec)
        })
        .collect();
    let (result, stats) =
        dramless::sweep::sweep_systems_on(util::pool::global(), &systems, workloads, &params())
            .expect("every Table I preset composes on the analytic tier");
    harness.record(&format!("{name}-build"), stats.build.as_nanos() as u64);
    harness.record_throughput(name, stats.cells as u64, stats.execute.as_nanos() as u64);
    result
}

/// Builds `w` through the process-wide trace cache at the default agent
/// count — the bench targets that replay a single workload (Fig. 13/18/
/// 20, Table III) share builds with the sweeps this way.
pub fn built(w: &Workload) -> Arc<BuiltWorkload> {
    w.build_cached(params().agents)
}

/// Prints a header banner for a bench.
pub fn banner(id: &str, what: &str) {
    println!("==============================================================");
    println!("{id}: {what}");
    println!("==============================================================");
}

/// Renders a time series as fixed-width sample rows: `(t, value)` where
/// the accumulated bucket values are normalized by `per` (e.g. bucket
/// cycles for IPC, bucket seconds for watts).
pub fn print_series(name: &str, series: &TimeSeries, samples: usize, per: f64) {
    let horizon = series.horizon();
    if horizon.is_zero() {
        println!("{name}: (empty)");
        return;
    }
    let dense = series.dense(horizon);
    let stride = (dense.len() / samples.max(1)).max(1);
    println!(
        "{name} (bucket {} — {} buckets):",
        series.bucket_width(),
        dense.len()
    );
    let mut line = String::new();
    for (i, chunk) in dense.chunks(stride).enumerate() {
        let t = series.bucket_width() * (i as u64 * stride as u64);
        let v: f64 = chunk.iter().sum::<f64>() / chunk.len() as f64 / per;
        line.push_str(&format!("  ({:>9}, {:>8.3})", format!("{t}"), v));
        if (i + 1) % 4 == 0 {
            println!("{line}");
            line.clear();
        }
    }
    if !line.is_empty() {
        println!("{line}");
    }
}

/// Geometric mean of pairwise `f(outcome_a, outcome_b)` across kernels
/// present for both systems.
pub fn geo_mean_ratio(
    r: &SuiteResult,
    a: SystemKind,
    b: SystemKind,
    f: impl Fn(&RunOutcome) -> f64,
) -> f64 {
    let mut acc = 0.0;
    let mut n = 0u32;
    for o in &r.outcomes {
        if o.system == a {
            if let Some(base) = r.get(b, o.kernel) {
                acc += (f(o) / f(base)).ln();
                n += 1;
            }
        }
    }
    (acc / n.max(1) as f64).exp()
}

/// Milliseconds helper for table rows.
pub fn ms(t: Picos) -> f64 {
    t.as_ms_f64()
}
