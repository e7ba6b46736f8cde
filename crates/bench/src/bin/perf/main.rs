//! `perf` — the simulator's benchmark: four workloads, end-to-end
//! metrics from untraced runs, per-layer metrics from a traced run.
//! `README.md` in this directory lists the workloads and metrics.
//!
//! ```sh
//! cargo run --release --offline -p bench --bin perf -- \
//!   run --workload paper-grid --seed 1 --seconds 16 --trace 0
//! ```
//!
//! `launch.rs`, a package of its own, builds and runs this binary the
//! same way from `BENCHMARK.json`'s command.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod calls;
mod compare;
mod metrics;
mod probe;
mod scenario;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use calls::Json;
use metrics::Benchmark;
use scenario::{Check, Rep, Scenario};
use stats::{median, percentile, tail_percentile};
use trace::Tracer;

const USAGE: &str = "\
usage:
  perf run --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>] [--out <dir>]
  perf compare <parent.json>... -- <change.json>...
workloads: paper-grid, capacity-sweep, fleet-burst, forensics
--seconds defaults to BENCHMARK.json's run_seconds; results go to --out (default .perf)";

/// Workload processes per untraced run: this one plus fresh child
/// processes running `perf setup`, started one at a time at even
/// intervals through the timed reps. Each gives its set-up time and its
/// peak resident set at the end of the warm-up rep.
///
/// On a shared VM, other tenants slow the simulator by 1.3-1.6x for
/// seconds to minutes at a time. That only ever adds time, so the
/// fastest sample tracks the program's own speed: `setup_s` is the
/// fastest set-up, and `work_per_s` comes from the fastest rep. The
/// peak resident set varies by a few MiB from process to process with
/// how the two threads' allocations interleave, so `peak_rss_mb` is the
/// median over the processes.
const SAMPLES: usize = 10;

/// Worker threads every workload's pool gets (fewer on a smaller box).
const THREADS: usize = 2;

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], started),
        Some("setup") => setup(&args[1..], started),
        Some("compare") => return compare::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let bench = Benchmark::load();
    let mut o = Options {
        workload: String::new(),
        seed: 0,
        seconds: bench.run_seconds,
        trace: false,
        out: PathBuf::from(".perf"),
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value for {flag}: {value}\n{USAGE}");
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    o.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    if o.workload != "all" && !bench.workloads.contains(&o.workload) {
        return Err(format!("unknown workload `{}`\n{USAGE}", o.workload));
    }
    Ok(o)
}

fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        Err("refusing to measure a debug build; build with --release".to_string())
    } else {
        Ok(())
    }
}

/// `perf run`: one workload in this process, or each workload in a
/// child process of its own, one at a time, for `--workload all`.
fn run(args: &[String], started: Instant) -> Result<bool, String> {
    refuse_debug_build()?;
    let o = parse(args)?;
    if o.workload != "all" {
        return run_one(&o, started);
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut clean = true;
    for name in &Benchmark::load().workloads {
        let status = Command::new(&exe)
            .args(["run", "--workload", name.as_str()])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&o.out)
            .status()
            .map_err(|e| format!("starting {name}: {e}"))?;
        clean &= status.success();
    }
    Ok(clean)
}

/// `perf setup`: sets a workload up and runs its warm-up rep, then
/// prints the seconds since process start and the peak resident set.
/// `perf run` starts several of these to sample fresh processes.
fn setup(args: &[String], started: Instant) -> Result<bool, String> {
    refuse_debug_build()?;
    let o = parse(args)?;
    let (_, warm) = set_up(&o, &calls::pool(threads()))?;
    let secs = started.elapsed().as_secs_f64();
    println!("{secs:?} {:?}", peak_rss_mb()?);
    Ok(warm.error.is_none())
}

/// Builds the workload and runs its untimed warm-up rep (rep 0), which
/// fills the trace and schedule caches.
fn set_up(o: &Options, pool: &calls::Pool) -> Result<(Box<dyn Scenario>, Rep), String> {
    let mut s = scenario::new(&o.workload, o.seed).ok_or(USAGE)?;
    let warm = s.rep(pool, 0, &mut Tracer::new(false));
    Ok((s, warm))
}

/// Runs `perf setup` in a child process: its set-up seconds and peak
/// resident set in MiB.
fn setup_in_child(o: &Options) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["setup", "--workload", &o.workload])
        .args(["--seed", &o.seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a set-up sample: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let failed = || format!("set-up sample failed: {}", text.trim());
    if !out.status.success() {
        return Err(failed());
    }
    let line = text.lines().last().unwrap_or_default();
    match line.split_once(' ').map(|(a, b)| (a.parse(), b.parse())) {
        Some((Ok(secs), Ok(rss))) => Ok((secs, rss)),
        _ => Err(failed()),
    }
}

fn threads() -> usize {
    nproc().min(THREADS)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs reps back to back until `seconds` have passed (at least one).
fn reps_for(
    s: &mut dyn Scenario,
    pool: &calls::Pool,
    seconds: f64,
    t: &mut Tracer,
    next: &mut u64,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        reps.push(s.rep(pool, *next, t));
        *next += 1;
    }
    reps
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").ok();
    let kb = status.as_deref().and_then(|s| {
        let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    });
    kb.map(|kb| kb / 1024.0)
        .ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_string())
}

/// First line of a tool's `--version`-style output, or `unknown`.
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_one(o: &Options, started: Instant) -> Result<bool, String> {
    let bench = Benchmark::load();
    if nproc() < THREADS {
        eprintln!(
            "perf: warning: {} core(s) available; the workloads are sized for a \
             {THREADS}-thread pool, so times will not compare with such runs",
            nproc()
        );
    }
    let pool = calls::pool(threads());
    let mut checks: Vec<Check> = Vec::new();

    let (mut s, warm) = set_up(o, &pool)?;
    let mut setups = vec![started.elapsed().as_secs_f64()];
    let mut rss = vec![peak_rss_mb()?];
    checks.push(("warm-up rep", warm.error.map_or(Ok(()), Err)));

    let mut next = 1;
    let untraced = if o.trace {
        reps_for(
            &mut *s,
            &pool,
            o.seconds / 4.0,
            &mut Tracer::new(false),
            &mut next,
        )
    } else {
        Vec::new()
    };
    let mut tracer = Tracer::new(o.trace);
    // Traced runs report no `setup_s` or `peak_rss_mb`, so they start no
    // child processes.
    let segments = if o.trace { 1 } else { SAMPLES - 1 };
    let mut reps = Vec::new();
    for _ in 0..segments {
        let share = o.seconds / segments as f64;
        reps.extend(reps_for(&mut *s, &pool, share, &mut tracer, &mut next));
        if !o.trace {
            let (secs, peak) = setup_in_child(o)?;
            setups.push(secs);
            rss.push(peak);
        }
    }
    // Printed beside `peak_rss_mb`: memory that grows rep after rep shows
    // here.
    let run_rss = peak_rss_mb()?;

    tracer.set_lane(trace::CHECKS);
    checks.extend(s.checks(&mut tracer));
    let fidelity = scenario::fidelity(&*s, &pool, o.seed, &mut tracer);

    let secs: Vec<f64> = reps.iter().map(|r| r.secs).collect();
    let fastest = secs.iter().copied().fold(f64::INFINITY, f64::min);
    let work = median(&reps.iter().map(|r| r.work as f64).collect::<Vec<_>>());
    let mut values: Vec<(String, f64)> = vec![
        (
            "setup_s".into(),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("work_per_s".into(), work / fastest),
        ("peak_rss_mb".into(), median(&rss)),
    ];
    match &fidelity {
        Ok(f) => {
            values.push(("paper_err_pct".into(), f.paper_err_pct));
            values.push(("tier_err_pct".into(), f.tier_err_pct));
        }
        Err(e) => checks.push(("accuracy references", Err(e.clone()))),
    }
    if let (true, Ok(f)) = (o.trace, &fidelity) {
        tracer.set_lane(trace::PROBE);
        match probe::run(o.seed, &pool, f, &mut tracer) {
            Ok(layers) => values.extend(layers),
            Err(e) => checks.push(("layer probe", Err(e))),
        }
        // Medians: a low percentile of the four times larger traced
        // sample would sit lower by sample size alone.
        let untraced: Vec<f64> = untraced.iter().map(|r| r.secs).collect();
        let overhead = median(&secs) / median(&untraced) - 1.0;
        values.push(("trace.overhead_frac".into(), overhead));
    }

    let wanted = if o.trace {
        &bench.per_layer
    } else {
        &bench.end_to_end
    };
    let mut reported = Vec::new();
    for m in wanted {
        match values.iter().find(|(n, _)| *n == m.name) {
            Some(&(_, v)) if v.is_finite() => reported.push((m.name.clone(), v, m.unit.clone())),
            _ => checks.push(("every listed metric is measured", Err(m.name.clone()))),
        }
    }
    let failed_reps = reps.iter().filter(|r| r.error.is_some()).count();
    let failed = failed_reps + checks.iter().filter(|c| c.1.is_err()).count();
    let attempted = reps.len() + checks.len();

    // Numbers printed and recorded beside the listed metrics. The rep
    // tail is among them, not gated: on a shared VM it measures how much
    // of the run other tenants slowed, and spread 15-22 % over ten seeds.
    let per_s = match s.unit() {
        "cells" => "cells_per_s",
        _ => "req_per_s",
    };
    let mut derived = vec![
        (per_s.to_string(), work / fastest, format!("{}/s", s.unit())),
        ("rep_min_s".to_string(), fastest, "s".to_string()),
        ("rep_p50_s".to_string(), median(&secs), "s".to_string()),
        (
            "rep_p75_s".to_string(),
            percentile(&secs, 0.75),
            "s".to_string(),
        ),
        (
            "failed_frac".to_string(),
            failed as f64 / attempted as f64,
            "ratio".to_string(),
        ),
        ("peak_rss_run_mb".to_string(), run_rss, "MiB".to_string()),
    ];
    let attr: Vec<f64> = reps.iter().filter_map(|r| r.attr_cost).collect();
    if !attr.is_empty() {
        derived.push(("attr_cost_x".to_string(), median(&attr), "x".to_string()));
    }

    // Human-readable report: one `name value unit` line per metric.
    let rustc = tool_output("rustc", &["--version"]);
    // Only a checkout of its own: git would otherwise search the parent
    // directories and could report an enclosing repository's revision.
    let git = if Path::new(".git").exists() {
        tool_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    println!(
        "perf {} seed={} reps={} nproc={} threads={} profile=release rustc=\"{rustc}\" git={git}",
        o.workload,
        o.seed,
        reps.len(),
        nproc(),
        pool.threads(),
    );
    for (name, v, unit) in reported.iter().chain(&derived) {
        let arrow = metrics::moves(name)
            .map(|(metric, workload)| format!("  -> {metric} @ {workload}"))
            .unwrap_or_default();
        println!("{name} {v:.6} {unit}{arrow}");
    }
    if tail_percentile(reps.len()) < 0.75 {
        println!(
            "note: {} reps leave fewer than {} samples above p75",
            reps.len(),
            stats::TAIL_SAMPLES
        );
    }
    println!("sim_digest {:#018x}", s.sim_digest());
    for e in reps.iter().filter_map(|r| r.error.as_deref()) {
        println!("FAIL rep: {e}");
    }
    for (name, outcome) in &checks {
        match outcome {
            Ok(()) => println!("ok   {name}"),
            Err(e) => println!("FAIL {name}: {e}"),
        }
    }
    if tracer.is_on() {
        println!("self time by span (count, total ms, self ms):");
        for (name, (n, total, own)) in tracer.self_times() {
            println!("  {name:<44} {n:>6} {total:>12.3} {own:>12.3}");
        }
    }

    let correct = failed == 0;
    let result = vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::U64(attempted as u64)),
        ("failed".to_string(), Json::U64(failed as u64)),
        ("metrics".to_string(), values_json(&reported)),
    ];
    let floats = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::F64(x)).collect());
    let mut record = vec![
        ("workload".to_string(), Json::Str(o.workload.clone())),
        ("seed".to_string(), Json::U64(o.seed)),
        ("traced".to_string(), Json::Bool(o.trace)),
        ("nproc".to_string(), Json::U64(nproc() as u64)),
        ("threads".to_string(), Json::U64(pool.threads() as u64)),
        ("profile".to_string(), Json::Str("release".to_string())),
        ("rustc".to_string(), Json::Str(rustc)),
        ("git".to_string(), Json::Str(git)),
        (
            "sim_digest".to_string(),
            Json::Str(format!("{:#018x}", s.sim_digest())),
        ),
        ("rep_s".to_string(), floats(&secs)),
        ("setup_samples_s".to_string(), floats(&setups)),
        ("rss_samples_mb".to_string(), floats(&rss)),
        ("derived".to_string(), values_json(&derived)),
    ];
    record.extend(result.clone());
    let stem = format!("{}-s{}", o.workload, o.seed);
    if o.trace {
        write(
            &o.out,
            &format!("{stem}.traced.json"),
            &Json::Obj(record).render(true),
        )?;
        write(
            &o.out,
            &format!("{stem}.spans.json"),
            &tracer.chrome_trace().render(false),
        )?;
    } else {
        write(
            &o.out,
            &format!("{stem}.json"),
            &Json::Obj(record).render(true),
        )?;
    }
    println!("{}", Json::Obj(result).render(false));
    Ok(correct)
}

/// `{name: {"value", "unit"}}` for `(name, value, unit)` triples.
fn values_json(values: &[(String, f64, String)]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(name, v, unit)| {
                let entry = Json::Obj(vec![
                    ("value".to_string(), Json::F64(*v)),
                    ("unit".to_string(), Json::Str(unit.clone())),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    )
}

fn write(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perf: wrote {}", path.display());
    Ok(())
}
