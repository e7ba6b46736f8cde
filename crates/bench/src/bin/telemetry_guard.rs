//! `telemetry-guard` — CI gate for the telemetry layer.
//!
//! Two checks, both offline and self-contained:
//!
//! 1. **Trace shape.** Reads the Chrome trace-event JSON a
//!    `dramless-sim --trace-out` run wrote and validates the shape
//!    Perfetto relies on: a flat array of records, every record an
//!    object carrying `ph`/`pid`/`tid`, metadata (`M`) records naming
//!    the per-component thread lanes, complete (`X`) events with
//!    numeric nondecreasing `ts` and positive `dur`, and at least one
//!    `partition/`, `rdb/` and `pe/` lane (the trace must come from a
//!    PRAM-bearing system for the per-partition tracks to exist).
//!
//! 2. **Disabled-probe overhead budget.** The probes are compiled in
//!    everywhere, so the cost that matters is the *disabled* path. CI
//!    cannot diff an instrumented build against a pre-telemetry build,
//!    so the guard bounds the overhead by proxy: it times the smoke
//!    sweep (telemetry off), microbenches the per-call cost of a
//!    disabled probe, counts how many probe calls the same sweep makes
//!    when traced, and asserts `calls x per_call` stays under 2% of
//!    the measured sweep wall clock. The call count doubles as a
//!    margin for counter bumps the trace bookkeeping cannot see.
//!
//! ```sh
//! telemetry-guard trace.json
//! ```

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use dramless::{sweep_specs, SystemKind, SystemParams, SystemSpec, TelemetrySpec};
use sim_core::probe::Probe;
use sim_core::time::Picos;
use util::json::Json;
use util::telemetry::{MetricValue, Track};
use workloads::{Kernel, Scale, Workload};

/// Probe-path overhead budget relative to the smoke-sweep wall clock.
const MAX_OVERHEAD_FRACTION: f64 = 0.02;

fn fail(msg: &str) -> ExitCode {
    eprintln!("telemetry-guard: {msg}");
    ExitCode::FAILURE
}

fn get<'j>(fields: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
    fields.iter().find(|(n, _)| n == key).map(|(_, v)| v)
}

/// Validates the Chrome trace-event shape; returns (spans, instants,
/// lane names) on success.
fn validate_trace(trace: &Json) -> Result<(u64, u64, Vec<String>), String> {
    let Json::Arr(items) = trace else {
        return Err("trace is not a JSON array of event records".into());
    };
    if items.is_empty() {
        return Err("trace is empty".into());
    }
    let mut last_ts = f64::NEG_INFINITY;
    let mut lanes: Vec<String> = Vec::new();
    let mut spans = 0u64;
    let mut instants = 0u64;
    for (i, item) in items.iter().enumerate() {
        let Json::Obj(fields) = item else {
            return Err(format!("record {i} is not an object"));
        };
        let Some(Json::Str(ph)) = get(fields, "ph") else {
            return Err(format!("record {i} lacks a ph"));
        };
        if get(fields, "pid").is_none() || get(fields, "tid").is_none() {
            return Err(format!("record {i} lacks pid/tid"));
        }
        match ph.as_str() {
            "M" => {
                if let Some(Json::Obj(args)) = get(fields, "args") {
                    if let Some(Json::Str(n)) = get(args, "name") {
                        lanes.push(n.clone());
                    }
                }
            }
            "X" | "i" => {
                let Some(Json::F64(ts)) = get(fields, "ts") else {
                    return Err(format!("event {i} lacks a numeric ts"));
                };
                if *ts < last_ts || *ts < 0.0 {
                    return Err(format!(
                        "timestamps not nondecreasing: {ts} after {last_ts} at record {i}"
                    ));
                }
                last_ts = *ts;
                if ph == "X" {
                    let Some(Json::F64(dur)) = get(fields, "dur") else {
                        return Err(format!("complete event {i} lacks dur"));
                    };
                    if *dur <= 0.0 {
                        return Err(format!("complete event {i} has non-positive dur"));
                    }
                    spans += 1;
                } else {
                    instants += 1;
                }
            }
            other => return Err(format!("record {i} has unexpected phase {other:?}")),
        }
    }
    if spans == 0 {
        return Err("no complete (X) events in the trace".into());
    }
    for prefix in ["partition/", "rdb/", "pe/"] {
        if !lanes.iter().any(|n| n.starts_with(prefix)) {
            return Err(format!(
                "no {prefix} lane among {lanes:?} — trace the DRAM-less preset \
                 (or any PRAM-bearing spec) so per-component tracks exist"
            ));
        }
    }
    Ok((spans, instants, lanes))
}

/// The smoke grid: small enough to finish in seconds, rich enough to
/// exercise the PRAM scheduler, the staging path and the page cache.
fn smoke_grid() -> (Vec<SystemKind>, Vec<Workload>, SystemParams) {
    let kinds = vec![SystemKind::Hetero, SystemKind::DramLess];
    let workloads = [Kernel::Trisolv, Kernel::Gemver]
        .iter()
        .map(|&k| Workload::of(k, Scale(0.2)))
        .collect();
    let params = SystemParams {
        agents: 3,
        ..Default::default()
    };
    (kinds, workloads, params)
}

/// Cold wall clock of the telemetry-off smoke sweep — the first run in
/// the process, so it includes the workload builds a cold smoke sweep
/// pays. Must be called before anything warms the trace cache.
fn time_disabled_sweep() -> f64 {
    let (kinds, workloads, params) = smoke_grid();
    let specs: Vec<SystemSpec> = kinds.iter().map(|k| k.spec()).collect();
    let t = Instant::now();
    black_box(sweep_specs(&specs, &workloads, &params).expect("smoke sweep composes"));
    t.elapsed().as_secs_f64()
}

/// Per-call cost of the disabled probe path, in seconds: the exact
/// branch every instrumented component takes on production runs.
/// Measured as the delta between a loop with the probe call and an
/// identical loop without it, so loop and argument-marshalling overhead
/// is not charged to the probe.
fn time_disabled_probe_call() -> f64 {
    let probe = black_box(Probe::disabled());
    let track = Track::new("guard", 0);
    const ITERS: u64 = 20_000_000;

    let run = |with_probe: bool| -> f64 {
        let t = Instant::now();
        for i in 0..ITERS {
            let start = black_box(Picos::from_ns(i));
            let end = black_box(Picos::from_ns(i + 1));
            if with_probe {
                probe.span(track, "x", start, end);
            }
        }
        t.elapsed().as_secs_f64()
    };
    // Warm up, then median-of-three deltas against the baseline loop.
    run(true);
    let mut deltas: Vec<f64> = (0..3).map(|_| run(true) - run(false)).collect();
    deltas.sort_by(f64::total_cmp);
    black_box(&probe);
    (deltas[1] / ITERS as f64).max(0.0)
}

/// How many probe calls the smoke sweep makes when telemetry is on:
/// spans + instants from the trace bookkeeping, plus one latency call
/// per histogram sample — all doubled as margin for counter bumps.
/// Per-sample is an over-count for `pe.mem_op`: the schedule replay
/// gathers those samples locally and hands them to the probe once per
/// `advance_slice` call, so the bound stays conservative.
fn count_probe_calls() -> u64 {
    let (kinds, workloads, params) = smoke_grid();
    let specs: Vec<SystemSpec> = kinds
        .iter()
        .map(|k| SystemSpec {
            telemetry: Some(TelemetrySpec::default()),
            ..k.spec()
        })
        .collect();
    let suite = sweep_specs(&specs, &workloads, &params).expect("traced smoke sweep composes");
    let agg = suite.aggregate_metrics();
    let events = agg.counter("trace.events_recorded").unwrap_or(0)
        + agg.counter("trace.events_dropped").unwrap_or(0);
    let samples: u64 = agg
        .iter()
        .map(|(_, v)| match v {
            MetricValue::Histogram(h) => h.count(),
            _ => 0,
        })
        .sum();
    (events + samples) * 2
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = args.first().map(String::as_str).unwrap_or("trace.json");

    // Check 1: the written trace is Perfetto-loadable.
    let text = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("reading {trace_path}: {e}")),
    };
    let trace = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => return fail(&format!("parsing {trace_path}: {e:?}")),
    };
    let (spans, instants, lanes) = match validate_trace(&trace) {
        Ok(v) => v,
        Err(e) => return fail(&format!("{trace_path}: {e}")),
    };
    println!(
        "telemetry-guard: {trace_path} OK — {spans} spans, {instants} instants \
         across {} named lanes",
        lanes.len()
    );

    // Check 2: the disabled-probe path stays within budget.
    let sweep_s = time_disabled_sweep();
    let per_call_s = time_disabled_probe_call();
    let calls = count_probe_calls();
    let overhead_s = per_call_s * calls as f64;
    let fraction = overhead_s / sweep_s;
    println!(
        "telemetry-guard: smoke sweep {:.3}s off; {} probe calls when traced x \
         {:.2}ns disabled-path cost = {:.6}s ({:.3}% of wall clock, limit {:.1}%)",
        sweep_s,
        calls,
        per_call_s * 1e9,
        overhead_s,
        fraction * 100.0,
        MAX_OVERHEAD_FRACTION * 100.0,
    );
    if fraction > MAX_OVERHEAD_FRACTION {
        return fail(&format!(
            "disabled-probe overhead {:.3}% exceeds the {:.1}% budget — the \
             disabled path must stay a single enum check (no allocation, no \
             locking)",
            fraction * 100.0,
            MAX_OVERHEAD_FRACTION * 100.0,
        ));
    }

    // Check 3: the memoization layers report their process-level
    // counters in the expected shape. The two sweeps above drove the
    // workload and schedule caches, so every counter must exist, the
    // caches must have both built (misses) and shared (hits), and the
    // totals must cover the cells the sweeps ran.
    let mut cache_metrics = util::telemetry::MetricSet::new();
    workloads::cache::collect_metrics(&mut cache_metrics);
    let counter = |name: &str| cache_metrics.counter(name);
    for name in [
        "cache.workload_hits",
        "cache.workload_misses",
        "cache.schedule_hits",
        "cache.schedule_misses",
    ] {
        if counter(name).is_none() {
            return fail(&format!(
                "memoization counter `{name}` missing from \
                 workloads::cache::collect_metrics"
            ));
        }
    }
    let wl = (
        counter("cache.workload_hits").unwrap_or(0),
        counter("cache.workload_misses").unwrap_or(0),
    );
    let sched = (
        counter("cache.schedule_hits").unwrap_or(0),
        counter("cache.schedule_misses").unwrap_or(0),
    );
    println!(
        "telemetry-guard: cache counters OK — workloads {}/{} hit/miss, \
         schedules {}/{} hit/miss",
        wl.0, wl.1, sched.0, sched.1
    );
    if wl.1 == 0 || sched.1 == 0 {
        return fail("the smoke sweeps built nothing — miss counters are zero");
    }
    if wl.0 == 0 || sched.0 == 0 {
        return fail(
            "the smoke sweeps shared nothing — hit counters are zero, so the \
             process-wide memoization is not being consulted",
        );
    }

    // Check 4: latency attribution conserves. Re-run the smoke grid
    // with attribution on and require every cell's per-request cause
    // decompositions to sum exactly to the end-to-end latencies.
    let (kinds, workloads, params) = smoke_grid();
    let specs: Vec<SystemSpec> = kinds
        .iter()
        .map(|k| SystemSpec {
            telemetry: Some(TelemetrySpec {
                attribution: true,
                ..Default::default()
            }),
            ..k.spec()
        })
        .collect();
    let suite = sweep_specs(&specs, &workloads, &params).expect("attributed smoke sweep composes");
    for out in &suite.outcomes {
        let Some(a) = &out.attr else {
            return fail(&format!(
                "{}/{}: attribution was on but the report has no \
                 latency_attribution block",
                out.system.name(),
                out.kernel.label()
            ));
        };
        if a.records == 0 {
            return fail(&format!(
                "{}/{}: attribution recorded no requests",
                out.system.name(),
                out.kernel.label()
            ));
        }
        if !a.conserves() {
            return fail(&format!(
                "{}/{}: attribution does not conserve — {} violation(s), \
                 {} ps attributed vs {} ps wall",
                out.system.name(),
                out.kernel.label(),
                a.violations,
                a.attributed_ps,
                a.wall_ps
            ));
        }
        println!(
            "telemetry-guard: {}/{} attribution OK — {} requests, \
             {} ps wall, conserving",
            out.system.name(),
            out.kernel.label(),
            a.records,
            a.wall_ps
        );
    }
    ExitCode::SUCCESS
}
