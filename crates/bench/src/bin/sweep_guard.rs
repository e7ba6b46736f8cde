//! `sweep-guard` — CI gate for the sweep engine's wall-clock, per tier.
//!
//! Sweeps the smoke grid (`SystemKind::EVALUATED` ×
//! `Workload::suite(Scale::from_env())`, default parameters, the global
//! pool) on the accurate tier and then on the analytic tier, and
//! compares each sweep's cell-execution wall-clock (`SweepStats::execute`,
//! trace build excluded; `sweep` = accurate, `sweep-analytic` = analytic)
//! against the committed baseline `crates/bench/sweep_baseline.json`
//! (schema-versioned; re-record deliberately, with the reason in the
//! commit message). The guard fails, printing a readable delta table,
//! when:
//!
//! * any tier's execution wall-clock exceeds `max_regression` times its
//!   baseline — a loose tripwire for "someone serialized the sweep
//!   again", sized so shared-runner CPU throttling never trips it;
//! * the analytic tier's cells/second falls below
//!   `min_analytic_speedup` times the accurate tier's — the committed
//!   floor on what the fidelity-tier split buys; or
//! * the *committed* accurate-tier baseline itself fails to record at
//!   least `min_speedup_vs_prior` times the `prior` record — the
//!   schedule-driven engine's speedup is pinned structurally, so nobody
//!   can quietly re-record the baseline back to per-op-path territory.
//!   (The runtime check stays relative because shared CI runners
//!   burst-throttle: absolute cells/second floors flake with machine
//!   state, while the committed record is measured once, on a rested
//!   machine, with the byte-identity of the output pinned separately by
//!   `tests/spec_equivalence.rs`.)
//!
//! ```sh
//! sweep-guard crates/bench/sweep_baseline.json
//! ```

use dramless::sweep::sweep_systems_on;
use dramless::{FidelityTier, SweepStats, SystemId, SystemKind, SystemParams, SystemSpec};
use std::process::ExitCode;
use util::json::FromJson;
use workloads::{Scale, Workload};

/// One tier's committed baseline: the measurement name a smoke run
/// records and the wall-clock it recorded when last re-based.
#[derive(Debug, Clone, PartialEq)]
struct TierBaseline {
    /// The tier's name: `sweep` (accurate) or `sweep-analytic`.
    name: String,
    /// Baseline smoke execution wall-clock, nanoseconds.
    smoke_ns: u64,
}

util::json_struct!(TierBaseline { name, smoke_ns });

/// The committed baseline file.
#[derive(Debug, Clone, PartialEq)]
struct SweepBaseline {
    /// Baseline file schema; this guard understands version 3.
    schema: u64,
    /// Human context for whoever re-records it.
    note: String,
    /// Per-tier wall-clock limit, as a multiple of `smoke_ns`.
    max_regression: f64,
    /// Floor on analytic cells/s ÷ accurate cells/s.
    min_analytic_speedup: f64,
    /// Floor on `prior.smoke_ns ÷ tiers["sweep"].smoke_ns` — the
    /// accurate tier's committed record must stay at least this much
    /// faster than the pre-schedule-replay engine.
    min_speedup_vs_prior: f64,
    /// The accurate tier's smoke wall-clock before the schedule-driven
    /// engine landed (per-op trace walk) — the yardstick for
    /// `min_speedup_vs_prior`.
    prior: TierBaseline,
    /// One entry per gated tier measurement.
    tiers: Vec<TierBaseline>,
}

util::json_struct!(SweepBaseline {
    schema,
    note,
    max_regression,
    min_analytic_speedup,
    min_speedup_vs_prior,
    prior,
    tiers
});

const SCHEMA: u64 = 3;

fn fail(msg: &str) -> ExitCode {
    eprintln!("sweep-guard: {msg}");
    ExitCode::FAILURE
}

fn secs(ns: f64) -> f64 {
    ns / 1e9
}

/// Sweeps the smoke grid with every preset on `tier`.
fn sweep(tier: FidelityTier, suite: &[Workload]) -> SweepStats {
    let systems: Vec<(SystemId, SystemSpec)> = SystemKind::EVALUATED
        .iter()
        .map(|&k| (SystemId::Preset(k), SystemSpec { tier, ..k.spec() }))
        .collect();
    let params = SystemParams::default();
    sweep_systems_on(util::pool::global(), &systems, suite, &params)
        .expect("every Table I preset composes on both tiers")
        .1
}

/// Reads the baseline and checks its schema.
fn load(path: &str) -> Result<SweepBaseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let baseline =
        SweepBaseline::from_json_str(&text).map_err(|e| format!("parsing {path}: {e:?}"))?;
    if baseline.schema != SCHEMA {
        return Err(format!(
            "{path} is schema {} but this guard understands schema \
             {SCHEMA}; re-record the baseline or update the guard",
            baseline.schema
        ));
    }
    if baseline.tiers.is_empty() {
        return Err(format!("{path} gates no tiers"));
    }
    Ok(baseline)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("crates/bench/sweep_baseline.json");
    let baseline = match load(baseline_path) {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };

    // The accurate sweep runs first and pays the trace builds; the
    // analytic sweep then finds them cached.
    let suite = Workload::suite(Scale::from_env());
    let measured = [
        ("sweep", sweep(FidelityTier::Accurate, &suite)),
        ("sweep-analytic", sweep(FidelityTier::Analytic, &suite)),
    ];

    // One row per gated tier; collect everything before judging so the
    // delta table is complete even when the first tier is the one that
    // regressed.
    let mut rows: Vec<(&TierBaseline, SweepStats, f64)> = Vec::new();
    for tier in &baseline.tiers {
        let Some((_, stats)) = measured.iter().find(|(name, _)| *name == tier.name) else {
            return fail(&format!(
                "{baseline_path} gates `{}`, but only `sweep` and `sweep-analytic` are measured",
                tier.name
            ));
        };
        let ratio = stats.execute.as_nanos() as f64 / tier.smoke_ns as f64;
        rows.push((tier, *stats, ratio));
    }

    println!(
        "{:<16} {:>10} {:>10} {:>7} {:>7} {:>10}",
        "tier", "observed", "baseline", "ratio", "limit", "cells/s"
    );
    for (tier, stats, ratio) in &rows {
        println!(
            "{:<16} {:>9.3}s {:>9.3}s {:>6.2}x {:>6.1}x {:>10.1}",
            tier.name,
            stats.execute.as_secs_f64(),
            secs(tier.smoke_ns as f64),
            ratio,
            baseline.max_regression,
            stats.cells_per_sec(),
        );
    }

    let mut failures = Vec::new();
    // Structural check on the committed record itself: the accurate
    // tier's baseline must stay ≥ min_speedup_vs_prior× faster than the
    // pre-schedule-replay engine's record.
    if let Some(tier) = baseline
        .tiers
        .iter()
        .find(|t| t.name == baseline.prior.name)
    {
        let committed_speedup = baseline.prior.smoke_ns as f64 / tier.smoke_ns.max(1) as f64;
        println!(
            "committed `{}` baseline: {:.3}s vs prior {:.3}s — {committed_speedup:.2}x \
             (floor {:.1}x)",
            tier.name,
            secs(tier.smoke_ns as f64),
            secs(baseline.prior.smoke_ns as f64),
            baseline.min_speedup_vs_prior
        );
        if committed_speedup < baseline.min_speedup_vs_prior {
            failures.push(format!(
                "the committed `{}` baseline is only {committed_speedup:.2}x the \
                 prior (per-op engine) record; the floor is {:.1}x — a slower \
                 re-record needs the floor lowered deliberately, in the same commit",
                tier.name, baseline.min_speedup_vs_prior
            ));
        }
    } else {
        failures.push(format!(
            "baseline gates no `{}` tier to compare against `prior`",
            baseline.prior.name
        ));
    }
    for (tier, _, ratio) in &rows {
        if *ratio > baseline.max_regression {
            failures.push(format!(
                "`{}` wall-clock regressed {ratio:.2}x over the committed \
                 baseline (limit {:.1}x)",
                tier.name, baseline.max_regression
            ));
        }
    }
    let [(_, accurate), (_, analytic)] = measured;
    let speedup = analytic.cells_per_sec() / accurate.cells_per_sec();
    println!(
        "analytic speedup: {speedup:.1}x cells/s over accurate (floor {:.1}x)",
        baseline.min_analytic_speedup
    );
    if speedup < baseline.min_analytic_speedup {
        failures.push(format!(
            "analytic tier is only {speedup:.1}x the accurate tier's \
             cells/s (floor {:.1}x)",
            baseline.min_analytic_speedup
        ));
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        fail(&format!(
            "{}; if this is an intentional trade, re-record {baseline_path}",
            failures.join("; ")
        ))
    }
}
