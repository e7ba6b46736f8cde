//! The single-thread layer probe of a traced run: times each layer of
//! the simulator in isolation, through the calls in `calls.rs`, and
//! returns the per-layer metrics `BENCHMARK.json` lists.
//!
//! Every cell gets a `cell` span whose children are the calls timed for
//! it, so the spans file shows the same decomposition as the metrics.

use crate::calls::{self, Grid, Pool, PRESET_SLUGS};
use crate::scenario::{Fidelity, PAPER_RATIOS};
use crate::trace::Tracer;

/// Per-layer metrics by name, in emission order.
pub type Layers = Vec<(String, f64)>;

/// Runs every probe. `pool` is the workload's pool, used once for the
/// multi-threaded sweep `sweep.parallel_eff` divides by.
pub fn run(seed: u64, pool: &Pool, fidelity: &Fidelity, t: &mut Tracer) -> Result<Layers, String> {
    let mut out = Layers::new();
    let grid = Grid::paper(seed);
    cells(&grid, pool, t, &mut out)?;
    analytic(&grid, t, &mut out)?;
    out.push(("analytic.max_drift_pct".into(), fidelity.max_drift_pct));
    fleet(seed, t, &mut out)?;
    forensics(seed, t, &mut out)?;
    for ((name, _), ratio) in PAPER_RATIOS.iter().zip(fidelity.ratios) {
        out.push((name.to_string(), ratio));
    }
    out.push((
        "workloads.cache.schedule_hit_ratio".into(),
        calls::schedule_hit_ratio(),
    ));
    Ok(out)
}

/// Trace and schedule builds, the fixed-latency replay, and every cell of
/// the paper grid: the time its backend takes inside a schedule replay,
/// and the whole cell's time.
fn cells(grid: &Grid, pool: &Pool, t: &mut Tracer, out: &mut Layers) -> Result<(), String> {
    let kernels = grid.kernels();
    let (mut build_s, mut sched_s, mut requests, mut engine_s) = (0.0, 0.0, 0u64, 0.0);
    // Per kernel, the time a fixed-latency backend spends inside the
    // backend calls: the timer's own cost, which each `backend.*` metric
    // is taken net of.
    let mut timer_s = vec![0.0; kernels];
    let mut schedules = Vec::with_capacity(kernels);
    for (k, timer) in timer_s.iter_mut().enumerate() {
        build_s += t
            .timed("workloads::Workload::build", k as u64, |_| {
                grid.build_kernel(k)
            })
            .1;
        let cell = grid.cell(0, k);
        sched_s += t
            .timed("accel::MemSchedule::build", k as u64, |_| {
                cell.build_schedule()
            })
            .1;
        let sched = cell.schedule();
        // The best of three, so that one slow replay does not land in
        // every `backend.*` metric.
        let (mut wall, mut inside, mut issued) = (f64::INFINITY, f64::INFINITY, 0);
        for _ in 0..3 {
            let (r, s) = t.timed("accel::run_schedule_at(fixed)", k as u64, |_| {
                cell.replay_fixed(&sched)
            });
            wall = wall.min(s);
            inside = inside.min(r.backend_s);
            issued = r.requests;
        }
        requests += issued;
        engine_s += wall - inside;
        *timer = inside;
        schedules.push(sched);
    }
    let per_req = |secs: f64| secs * 1e9 / requests.max(1) as f64;
    out.push(("workloads.build_ms".into(), build_s * 1e3));
    out.push(("accel.sched.build_ms".into(), sched_s * 1e3));
    out.push(("accel.sched.requests".into(), requests as f64));
    out.push(("accel.exec.ns_per_req".into(), per_req(engine_s)));

    let (mut cell_sum, mut critical) = (0.0, 0f64);
    let mut cell_ms = Vec::new();
    for (p, slug) in PRESET_SLUGS.iter().enumerate() {
        let (mut backend_s, mut preset_s) = (0.0, 0.0);
        for (k, sched) in schedules.iter().enumerate() {
            let cell = grid.cell(p, k);
            let id = (p * kernels + k) as u64;
            let (replay, c) = t.span("cell", id, |t| -> Result<_, String> {
                let mut sys = t.span("dramless::build_system", id, |_| cell.compose())?;
                let replay = t.span("accel::run_schedule_at", id, |_| {
                    cell.replay_on(&mut sys, sched)
                });
                let (outcome, c) = t.timed("dramless::simulate_spec_as", id, |_| cell.simulate());
                outcome?;
                Ok((replay, c))
            })?;
            backend_s += replay.backend_s - timer_s[k];
            preset_s += c;
            critical = critical.max(c);
        }
        out.push((format!("backend.{slug}.ns_per_req"), per_req(backend_s)));
        cell_ms.push((
            format!("system.cell_ms.{slug}"),
            preset_s * 1e3 / kernels as f64,
        ));
        cell_sum += preset_s;
    }
    out.extend(cell_ms);
    out.push(("sweep.critical_cell_ms".into(), critical * 1e3));
    let (swept, wall) = t.timed("dramless::sweep", 0, |_| calls::sweep(pool, grid));
    swept?;
    out.push((
        "sweep.parallel_eff".into(),
        cell_sum / (pool.threads() as f64 * wall),
    ));
    Ok(())
}

/// Every cell of the paper grid on the analytic tier, split into system
/// build, model construction, model evaluation and the rest of the cell
/// (offload, staging and the ledger), which is inferred from the whole
/// cell's time.
fn analytic(grid: &Grid, t: &mut Tracer, out: &mut Layers) -> Result<(), String> {
    let grid = grid.clone().analytic();
    let (mut build_s, mut model_s, mut exec_s, mut cell_s) = (0.0, 0.0, 0.0, 0.0);
    for p in 0..PRESET_SLUGS.len() {
        for k in 0..grid.kernels() {
            let cell = grid.cell(p, k);
            let id = (p * grid.kernels() + k) as u64;
            let (b, m, e, c) = t.span("cell", id, |t| -> Result<_, String> {
                let (sys, b) = t.timed("dramless::build_system", id, |_| cell.compose());
                sys?;
                let (model, m) = t.timed("dramless::ExecModel::for_spec", id, |_| {
                    cell.analytic_model()
                });
                let model = model?;
                let e = t
                    .timed("dramless::ExecModel::exec", id, |_| {
                        cell.analytic_exec(&model)
                    })
                    .1;
                let (outcome, c) = t.timed("dramless::simulate_spec_as", id, |_| cell.simulate());
                outcome?;
                Ok((b, m, e, c))
            })?;
            build_s += b;
            model_s += m;
            exec_s += e;
            cell_s += c;
        }
    }
    let cells = grid.cells() as f64;
    out.push(("system.build_us".into(), build_s * 1e6 / cells));
    out.push((
        "system.phases_frac".into(),
        (cell_s - build_s - model_s - exec_s) / cell_s,
    ));
    out.push(("analytic.model_us".into(), model_s * 1e6 / cells));
    out.push(("analytic.exec_us".into(), exec_s * 1e6 / cells));
    Ok(())
}

/// The `fleet-burst` cell's rep 0, split into kernel pricing, traffic
/// generation and the serving loop with its aggregation.
fn fleet(seed: u64, t: &mut Tracer, out: &mut Layers) -> Result<(), String> {
    let spec = calls::fleet_burst(calls::stream_seed(seed, &[0]));
    let (priced, price_s) = t.timed("fleet::price", 0, |_| calls::price_fleet_kernels(&spec));
    priced?;
    let (traffic, gen_s) = t.timed("traffic::generate", 0, |_| calls::generate_traffic(&spec));
    traffic?;
    let (report, serve_s) = t.timed("dramless::run_fleet_on@1-thread", 0, |_| {
        calls::serve(&calls::pool(1), &spec)
    });
    let report = report?;
    let requests = calls::fleet_offered(&report).max(1) as f64;
    let (rejected, degraded, p999_ms) = calls::fleet_outcome(&report);
    out.push(("fleet.price_ms".into(), price_s * 1e3));
    out.push(("traffic.ns_per_req".into(), gen_s * 1e9 / requests));
    out.push((
        "fleet.serve_ns_per_req".into(),
        (serve_s - price_s - gen_s) * 1e9 / requests,
    ));
    out.push(("fleet.sim.rejected_frac".into(), rejected));
    out.push(("fleet.sim.degraded_frac".into(), degraded));
    out.push(("fleet.sim.p999_ms".into(), p999_ms));
    Ok(())
}

/// The forensics rep-0 cells with attribution off and on, then the
/// record, encode, decode, verify and window replay of its DRAM-less
/// gemver cell.
fn forensics(seed: u64, t: &mut Tracer, out: &mut Layers) -> Result<(), String> {
    let fault_seed = calls::stream_seed(seed, &[0]);
    let plain = Grid::forensics(seed, fault_seed, false);
    let attributed = Grid::forensics(seed, fault_seed, true);
    let (mut plain_sum, mut attr_sum) = (0.0, 0.0);
    let mut worst = None;
    for (slug, p) in [("dramless", calls::DRAMLESS), ("hetero", calls::HETERO)] {
        let (mut plain_s, mut attr_s) = (0.0, 0.0);
        for k in 0..plain.kernels() {
            let id = (p * plain.kernels() + k) as u64;
            let (r, s) = t.timed("dramless::simulate_spec_as(plain)", id, |_| {
                plain.cell(p, k).simulate()
            });
            r?;
            plain_s += s;
            let (r, s) = t.timed("dramless::simulate_spec_as(attributed)", id, |_| {
                attributed.cell(p, k).simulate()
            });
            let outcome = r?;
            if (p, k) == (calls::DRAMLESS, 0) {
                worst = calls::worst_exec(&outcome).map(|(_, index)| index);
            }
            attr_s += s;
        }
        let n = plain.kernels() as f64;
        out.push((format!("telemetry.plain_cell_ms.{slug}"), plain_s * 1e3 / n));
        out.push((format!("telemetry.attr_cell_ms.{slug}"), attr_s * 1e3 / n));
        plain_sum += plain_s;
        attr_sum += attr_s;
    }
    out.push(("telemetry.attr_cost_x".into(), attr_sum / plain_sum));

    let index = worst
        .ok_or_else(|| "the attributed DRAM-less gemver cell has no exec request".to_string())?;
    let id = (calls::DRAMLESS * plain.kernels()) as u64;
    let (r, cell_s) = t.timed("dramless::simulate_spec_as(plain)", id, |_| {
        plain.cell(calls::DRAMLESS, 0).simulate()
    });
    r?;
    let (rec, record_s) = t.timed("replay::record_run", id, |_| calls::record(&plain, 0));
    let rec = rec?;
    let (text, encode_s) = t.timed("json::encode", id, |_| calls::encode_recording(&rec));
    let (back, decode_s) = t.timed("json::decode", id, |_| calls::decode_recording(&text));
    let back = back?;
    let (verified, verify_s) = t.timed("replay::verify", id, |_| calls::verify(&back));
    verified?;
    let (window, window_s) = t.timed("replay::replay", id, |_| {
        calls::replay_request(&back, index)
    });
    window?;
    let mb = text.len() as f64 / 1e6;
    out.push(("replay.record_ms".into(), record_s * 1e3));
    out.push(("replay.record_cost_x".into(), record_s / cell_s));
    out.push(("replay.verify_ms".into(), verify_s * 1e3));
    out.push(("replay.window_ms".into(), window_s * 1e3));
    out.push(("replay.checkpoints".into(), calls::checkpoints(&rec) as f64));
    out.push(("json.recording_bytes".into(), text.len() as f64));
    out.push(("json.recording_encode_mb_per_s".into(), mb / encode_s));
    out.push(("json.recording_decode_mb_per_s".into(), mb / decode_s));
    Ok(())
}
