//! `perf compare <parent.json>... -- <change.json>...`: judges a change
//! against its parent from result files of alternating runs.
//!
//! The i-th parent file of a workload is paired with the i-th change
//! file of the same workload, so list them in the order they ran. Every
//! workload needs at least [`MIN_PAIRS`] pairs.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::calls::Json;
use crate::metrics::{Benchmark, Metric};
use crate::stats::{median, quartiles};

/// Fewest parent/change pairs a verdict may rest on.
pub const MIN_PAIRS: usize = 10;

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least 9 of 10 pairs and its median beats the
    /// parent's by more than the parent's interquartile range.
    Improved,
    /// The change's median is within the metric's bound of the parent's.
    Unchanged,
    /// The change's median is within the bound, but the spread between
    /// runs is wider than the bound, so the samples cannot tell
    /// (per-layer metrics, having no bound, are unresolved unless they
    /// improved or regressed).
    Unresolved,
    /// The change's median is worse than the parent's by more than the
    /// bound; for per-layer metrics, the mirror image of `Improved`.
    Regressed,
}

/// Judges `change` against `parent`, pair `i` being the i-th sample of
/// each.
pub fn verdict(metric: &Metric, parent: &[f64], change: &[f64]) -> Verdict {
    let sign = if metric.higher_is_better { 1.0 } else { -1.0 };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| sign * (change[i] - parent[i]) > 0.0)
        .count();
    let losses = (0..pairs)
        .filter(|&i| sign * (change[i] - parent[i]) < 0.0)
        .count();
    let (p_med, c_med) = (median(parent), median(change));
    let gap = sign * (c_med - p_med);
    let iqr = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        q3 - q1
    };
    let parent_iqr = iqr(parent);
    if wins * 10 >= pairs * 9 && gap > parent_iqr {
        return Verdict::Improved;
    }
    let Some(bound) = metric.bound else {
        return if losses * 10 >= pairs * 9 && -gap > parent_iqr {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    };
    let scale = p_med.abs().max(f64::MIN_POSITIVE);
    let spread = parent_iqr.max(iqr(change)) / scale;
    let worst_change = change
        .iter()
        .map(|c| sign * c)
        .fold(f64::INFINITY, f64::min);
    let best_parent = parent
        .iter()
        .map(|p| sign * p)
        .fold(f64::NEG_INFINITY, f64::max);
    if -gap / scale > bound {
        Verdict::Regressed
    } else if spread > bound && worst_change <= best_parent {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// One result file: what ran, how many of its checks failed, the digest
/// of its simulated output, and its metric values.
struct Run {
    workload: String,
    seed: u64,
    failed: u64,
    sim_digest: String,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("{path}: no `{key}`"));
    let number = |key: &str| {
        field(key)?
            .as_u64()
            .ok_or_else(|| format!("{path}: `{key}` is not a whole number"))
    };
    let text = |key: &str| {
        field(key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: `{key}` is not a string"))
    };
    let Json::Obj(entries) = field("metrics")? else {
        return Err(format!("{path}: `metrics` is not an object"));
    };
    let metrics = entries
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        workload: text("workload")?,
        seed: number("seed")?,
        failed: number("failed")?,
        sim_digest: text("sim_digest")?,
        metrics,
    })
}

/// Reasons the change's runs of one workload cannot be judged on their
/// metrics: they fail more checks than the parent's, or a run's simulated
/// output (`sim_digest`) differs from the parent's for the same seed.
fn integrity(workload: &str, parent: &[Run], change: &[Run]) -> Vec<String> {
    let failed = |runs: &[Run]| runs.iter().map(|r| r.failed).sum::<u64>();
    let mut problems = Vec::new();
    if failed(change) > failed(parent) {
        problems.push(format!(
            "{workload}: the change failed {} checks, the parent {}",
            failed(change),
            failed(parent)
        ));
    }
    for c in change {
        let differs = |p: &&Run| p.seed == c.seed && p.sim_digest != c.sim_digest;
        if let Some(p) = parent.iter().find(differs) {
            problems.push(format!(
                "{workload} seed {}: sim_digest {} differs from the parent's {}",
                c.seed, c.sim_digest, p.sim_digest
            ));
        }
    }
    problems
}

fn label(v: Verdict) -> &'static str {
    match v {
        Verdict::Improved => "improved",
        Verdict::Unchanged => "unchanged",
        Verdict::Unresolved => "unresolved",
        Verdict::Regressed => "REGRESSED",
    }
}

/// The `compare` subcommand. Exits non-zero when a metric regressed, the
/// change failed more checks than its parent, or its simulated output
/// changed.
pub fn main(args: &[String]) -> ExitCode {
    match compare(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare(args: &[String]) -> Result<bool, String> {
    let sep = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: perf compare <parent.json>... -- <change.json>...")?;
    let mut sides: BTreeMap<String, (Vec<Run>, Vec<Run>)> = BTreeMap::new();
    for (i, path) in args.iter().enumerate().filter(|&(i, _)| i != sep) {
        let run = load(path)?;
        let side = sides.entry(run.workload.clone()).or_default();
        if i < sep {
            side.0.push(run);
        } else {
            side.1.push(run);
        }
    }
    if sides.is_empty() {
        return Err("no result files given".into());
    }
    let bench = Benchmark::load();
    let mut clean = true;
    let mut problems = Vec::new();
    println!(
        "{:<15} {:<36} {:>24} {:>24} {:>6}  verdict",
        "workload", "metric", "parent p50 [q1, q3]", "change p50 [q1, q3]", "wins"
    );
    for (workload, (parent, change)) in &sides {
        if parent.len() != change.len() || parent.len() < MIN_PAIRS {
            return Err(format!(
                "{workload}: {} parent and {} change runs; need at least {MIN_PAIRS} \
                 alternating pairs",
                parent.len(),
                change.len()
            ));
        }
        problems.extend(integrity(workload, parent, change));
        for metric in bench.end_to_end.iter().chain(&bench.per_layer) {
            let values = |runs: &[Run]| -> Option<Vec<f64>> {
                runs.iter()
                    .map(|r| r.metrics.get(&metric.name).copied())
                    .collect()
            };
            let (Some(p), Some(c)) = (values(parent), values(change)) else {
                continue;
            };
            let v = verdict(metric, &p, &c);
            clean &= v != Verdict::Regressed;
            let sign = if metric.higher_is_better { 1.0 } else { -1.0 };
            let wins = p
                .iter()
                .zip(&c)
                .filter(|(p, c)| sign * (*c - *p) > 0.0)
                .count();
            let cell = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                format!("{:.4} [{q1:.4}, {q3:.4}]", median(xs))
            };
            println!(
                "{workload:<15} {:<36} {:>24} {:>24} {:>3}/{:<2}  {}",
                format!("{} ({})", metric.name, metric.unit),
                cell(&p),
                cell(&c),
                wins,
                p.len(),
                label(v)
            );
        }
    }
    for p in &problems {
        println!("FAIL {p}");
    }
    Ok(clean && problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(bound: Option<f64>) -> Metric {
        Metric {
            name: "setup_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound,
        }
    }

    /// Ten samples around `center`, spread ±`jitter`.
    fn samples(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i * 7 % 10) as f64 / 4.5 - 1.0))
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_samples() {
        let m = metric(Some(0.10));
        let parent = samples(1.0, 0.02);
        assert_eq!(verdict(&m, &parent, &samples(0.8, 0.02)), Verdict::Improved);
        assert_eq!(
            verdict(&m, &parent, &samples(1.01, 0.02)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&m, &parent, &samples(1.3, 0.02)),
            Verdict::Regressed
        );
        let noisy = samples(1.0, 0.5);
        assert_eq!(
            verdict(&m, &noisy, &samples(1.05, 0.5)),
            Verdict::Unresolved
        );
        // Noise does not hide a median worse by more than the bound.
        assert_eq!(verdict(&m, &noisy, &samples(1.5, 0.5)), Verdict::Regressed);
        // A wide spread reads unchanged, not unresolved, when every change
        // run beats every parent run but the gap is within the parent's
        // interquartile range.
        assert_eq!(
            verdict(&m, &samples(1.4, 0.3), &samples(1.06, 0.03)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn per_layer_metrics_need_the_win_rule_either_way() {
        let m = metric(None);
        let parent = samples(1.0, 0.02);
        assert_eq!(verdict(&m, &parent, &samples(0.8, 0.02)), Verdict::Improved);
        assert_eq!(
            verdict(&m, &parent, &samples(1.2, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&m, &parent, &parent), Verdict::Unresolved);
    }

    fn run(seed: u64, failed: u64, sim_digest: &str) -> Run {
        Run {
            workload: "paper-grid".into(),
            seed,
            failed,
            sim_digest: sim_digest.into(),
            metrics: BTreeMap::new(),
        }
    }

    #[test]
    fn failed_checks_and_changed_digests_are_flagged() {
        let parent = [run(1, 0, "0xa"), run(2, 1, "0xb")];
        // Same failures, same digests per seed: nothing to flag.
        let same = [run(2, 0, "0xb"), run(1, 1, "0xa")];
        assert!(integrity("paper-grid", &parent, &same).is_empty());
        // More failures than the parent.
        let failing = [run(1, 1, "0xa"), run(2, 1, "0xb")];
        assert_eq!(integrity("paper-grid", &parent, &failing).len(), 1);
        // Seed 2's simulated output changed.
        let drifted = [run(1, 0, "0xa"), run(2, 1, "0xc")];
        let problems = integrity("paper-grid", &parent, &drifted);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("seed 2"), "{problems:?}");
    }
}
