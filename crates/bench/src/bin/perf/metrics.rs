//! The benchmark's definition, read from `BENCHMARK.json` at the
//! repository root: workloads, metrics with units and regression
//! bounds. The binary embeds the file, so it is the single source of
//! metric units and bounds.

use crate::calls::Json;

/// `BENCHMARK.json`, embedded at build time.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// before a change counts as a regression; `None` for per-layer
    /// metrics.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Benchmark {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?;
    items
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{k}`"))
            };
            let better = text("better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("BENCHMARK.json: better = `{better}`"));
            }
            Ok(Metric {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Benchmark {
    /// The embedded definition.
    pub fn load() -> Benchmark {
        Benchmark::parse(BENCHMARK_JSON).expect("the embedded BENCHMARK.json is valid")
    }

    fn parse(text: &str) -> Result<Benchmark, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: `workloads` is not a list")?
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: a workload lacks `name`")?;
        Ok(Benchmark {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }
}

/// The end-to-end metric a per-layer metric should move, and the
/// workload it should move it on. `None` for simulated outputs that a
/// speed-only change must leave identical (`fleet.sim.*`) and for the
/// benchmark's own tracing overhead.
pub fn moves(layer: &str) -> Option<(&'static str, &'static str)> {
    let target = match layer {
        "workloads.build_ms" | "accel.sched.build_ms" | "accel.sched.requests" => {
            ("setup_s", "paper-grid")
        }
        "accel.exec.ns_per_req"
        | "sweep.parallel_eff"
        | "sweep.critical_cell_ms"
        | "workloads.cache.schedule_hit_ratio" => ("work_per_s", "paper-grid"),
        l if l.starts_with("backend.") || l.starts_with("system.cell_ms.") => {
            ("work_per_s", "paper-grid")
        }
        "system.build_us" | "system.phases_frac" | "analytic.model_us" | "analytic.exec_us" => {
            ("work_per_s", "capacity-sweep")
        }
        "analytic.max_drift_pct" => ("tier_err_pct", "capacity-sweep"),
        "fleet.price_ms" | "traffic.ns_per_req" | "fleet.serve_ns_per_req" => {
            ("work_per_s", "fleet-burst")
        }
        l if l.starts_with("telemetry.") || l.starts_with("replay.") || l.starts_with("json.") => {
            ("work_per_s", "forensics")
        }
        l if l.starts_with("model.") => ("paper_err_pct", "paper-grid"),
        _ => return None,
    };
    Some(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_parses_with_valid_names() {
        let b = Benchmark::load();
        assert!((2..=8).contains(&b.workloads.len()));
        let mut names: Vec<&str> = b.workloads.iter().map(String::as_str).collect();
        names.extend(
            b.end_to_end
                .iter()
                .chain(&b.per_layer)
                .map(|m| m.name.as_str()),
        );
        for n in &names {
            assert!(valid_name(n), "bad name `{n}`");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in &b.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = b.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && !m.higher_is_better));
    }

    #[test]
    fn every_moves_entry_names_a_real_metric_and_workload() {
        let b = Benchmark::load();
        for layer in &b.per_layer {
            match moves(&layer.name) {
                Some((metric, workload)) => {
                    assert!(
                        b.end_to_end.iter().any(|m| m.name == metric),
                        "{} moves unknown metric {metric}",
                        layer.name
                    );
                    assert!(
                        b.workloads.iter().any(|w| w == workload),
                        "{} moves on unknown workload {workload}",
                        layer.name
                    );
                }
                None => assert!(
                    layer.name.starts_with("fleet.sim.") || layer.name == "trace.overhead_frac",
                    "{} has no moves entry",
                    layer.name
                ),
            }
        }
    }
}
