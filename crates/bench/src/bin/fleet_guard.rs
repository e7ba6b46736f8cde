//! `fleet-guard` — CI gate for the fleet serving path.
//!
//! Self-contained: builds a fixed, seeded guard cell (no input files),
//! serves it at 1 thread and at 4 threads, and fails, printing a
//! readable delta table, when:
//!
//! * the two reports are not **byte-identical** — the fleet path's
//!   determinism contract (one serial serving pass that tallies as it
//!   serves; the pool only prices kernels, in kernel order) is
//!   load-bearing for record/replay and for every committed QoS number;
//! * either report fails its own conservation ledger (offered =
//!   completed + rejected, class/tenant histograms merge to the
//!   aggregate, attribution records match completions); or
//! * served requests/second falls below the committed baseline
//!   `crates/bench/fleet_baseline.json` divided by `max_regression` — a
//!   loose tripwire for "someone made the serving loop quadratic",
//!   sized so shared-runner CPU throttling never trips it. (Re-record
//!   deliberately, with the reason in the commit message.)
//!
//! ```sh
//! fleet-guard crates/bench/fleet_baseline.json
//! ```

use dramless::{run_fleet_on, ArrivalProcess, BalancerKind, FleetReport, FleetSpec};
use std::process::ExitCode;
use util::json::{FromJson, ToJson};
use util::pool::Pool;
use workloads::Kernel;

/// The committed baseline file.
#[derive(Debug, Clone, PartialEq)]
struct FleetBaseline {
    /// Baseline file schema; this guard understands version 1.
    schema: u64,
    /// Human context for whoever re-records it.
    note: String,
    /// Observed throughput may fall to `throughput_rps / max_regression`
    /// before the guard trips.
    max_regression: f64,
    /// Requests the guard cell serves (sanity-pins the cell shape).
    requests: u64,
    /// Served requests/second when the baseline was last re-based,
    /// measured on the 4-thread run.
    throughput_rps: f64,
}

util::json_struct!(FleetBaseline {
    schema,
    note,
    max_regression,
    requests,
    throughput_rps
});

const SCHEMA: u64 = 1;

/// The fixed guard cell. Changing ANY field here re-shapes the work the
/// baseline throughput was measured on — re-record in the same commit.
fn guard_spec() -> FleetSpec {
    FleetSpec {
        name: Some("fleet-guard".into()),
        accelerators: 4,
        slots_per_accel: 2,
        balancer: BalancerKind::QosAware,
        tenants: 256,
        arrivals: ArrivalProcess::Bursty {
            base_per_s: 400.0,
            burst_per_s: 4_000.0,
            mean_burst_ms: 20.0,
            mean_calm_ms: 80.0,
        },
        kernels: vec![Kernel::Trisolv, Kernel::Durbin, Kernel::Jaco1d],
        seed: 4242,
        requests: 10_000,
        admit_ms: 25.0,
        erase_every_kb: 256,
        ..FleetSpec::example()
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("fleet-guard: {msg}");
    ExitCode::FAILURE
}

fn serve(threads: usize, spec: &FleetSpec) -> Result<(FleetReport, f64), String> {
    let pool = Pool::new(threads);
    let started = std::time::Instant::now();
    let report = run_fleet_on(&pool, spec).map_err(|e| format!("{threads}-thread run: {e}"))?;
    Ok((report, started.elapsed().as_secs_f64()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("crates/bench/fleet_baseline.json");

    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("reading {baseline_path}: {e}")),
    };
    let baseline = match FleetBaseline::from_json_str(&baseline_text) {
        Ok(b) => b,
        Err(e) => return fail(&format!("parsing {baseline_path}: {e:?}")),
    };
    if baseline.schema != SCHEMA {
        return fail(&format!(
            "{baseline_path} is schema {} but this guard understands schema \
             {SCHEMA}; re-record the baseline or update the guard",
            baseline.schema
        ));
    }

    let spec = guard_spec();
    if spec.requests != baseline.requests {
        return fail(&format!(
            "guard cell serves {} requests but {baseline_path} was recorded \
             at {}; re-record the baseline in the same commit as the cell change",
            spec.requests, baseline.requests
        ));
    }
    let (serial, serial_secs) = match serve(1, &spec) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let (threaded, threaded_secs) = match serve(4, &spec) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };

    let rps = threaded.offered as f64 / threaded_secs.max(1e-9);
    let floor = baseline.throughput_rps / baseline.max_regression;
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12}",
        "run", "requests", "wall", "req/s", "floor"
    );
    for (name, r, secs) in [
        ("1 thread", &serial, serial_secs),
        ("4 threads", &threaded, threaded_secs),
    ] {
        println!(
            "{:<14} {:>10} {:>9.3}s {:>12.0} {:>12.0}",
            name,
            r.offered,
            secs,
            r.offered as f64 / secs.max(1e-9),
            floor
        );
    }

    // Collect every failure before judging so the table above is always
    // followed by the complete verdict.
    let mut failures = Vec::new();
    if serial.to_json() != threaded.to_json() {
        failures.push(
            "1-thread and 4-thread reports differ — the fleet path lost \
             byte-determinism"
                .to_string(),
        );
    }
    for (name, r) in [("1-thread", &serial), ("4-thread", &threaded)] {
        if let Err(e) = r.check_conservation() {
            failures.push(format!("{name} report fails conservation: {e}"));
        }
    }
    if rps < floor {
        failures.push(format!(
            "served only {rps:.0} req/s; the committed baseline is \
             {:.0} req/s and the floor {floor:.0} req/s ({}x regression limit)",
            baseline.throughput_rps, baseline.max_regression
        ));
    }

    if failures.is_empty() {
        println!(
            "fleet-guard: OK — byte-identical at 1 vs 4 threads, conservation \
             holds, {rps:.0} req/s (floor {floor:.0})"
        );
        ExitCode::SUCCESS
    } else {
        fail(&format!(
            "{}; if this is an intentional trade, re-record {baseline_path}",
            failures.join("; ")
        ))
    }
}
