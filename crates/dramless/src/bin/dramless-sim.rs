//! `dramless-sim` — run any (system, kernel) combination from the
//! command line and print (or emit as JSON) the outcome.
//!
//! ```sh
//! dramless-sim --system dram-less --kernel gemver
//! dramless-sim --system hetero --kernel all --scale 1.5 --json results.json
//! dramless-sim --spec my_config.json --kernel gemver
//! dramless-sim --list-systems
//! dramless-sim reproduce --out repro
//! ```
//!
//! Every flag is one row of [`FLAGS`], which names the subcommands that
//! accept it. [`parse`] checks a command line against that table, each
//! `cmd_*` converts the values it uses, and `main` reports every error.

use dramless::replay::{self, Recording};
use dramless::{
    run_fleet_on, BalancerKind, FaultPlan, FidelityTier, FleetReport, FleetSpec, RunOutcome,
    SuiteResult, SweepStats, SystemId, SystemKind, SystemParams, SystemSpec,
};
use sim_core::fault::FaultCounters;
use sim_core::probe::{AttrScope, AttrSummary, Cause};
use sim_core::time::Picos;
use std::error::Error;
use std::ops::Range;
use std::process::ExitCode;
use std::str::FromStr;
use util::json::{FromJson, ToJson};
use util::pool::{self, Pool};
use util::telemetry::{chrome_trace, MetricValue};
use workloads::{Kernel, Scale, Workload};

/// What a subcommand returns; `main` prints the error and exits 1.
type CliResult<T = ()> = Result<T, Box<dyn Error>>;

/// The subcommand words; without one, `dramless-sim [flags]` is `run`.
const SUBCOMMANDS: [&str; 5] = ["record", "replay", "reproduce", "serve", "top"];

/// One row of the flag table: the flag, whether it takes a value, and
/// the subcommands that accept it.
type Flag = (&'static str, bool, &'static [&'static str]);

/// Who takes the cell-selection flags. `record` takes every one `top`
/// does, so `top` can print a `record` line for the cell it profiled.
const SELECT: &[&str] = &["run", "record", "top"];
const ALL: &[&str] = &["run", "record", "replay", "reproduce", "serve", "top"];

/// Every flag of every subcommand. `--help` documents each one.
const FLAGS: &[Flag] = &[
    ("--system", true, SELECT),
    ("--spec", true, SELECT),
    ("--kernel", true, SELECT),
    ("--scale", true, SELECT),
    ("--seed", true, &["run", "record", "top", "serve"]),
    ("--agents", true, SELECT),
    ("--tier", true, SELECT),
    ("--faults", true, SELECT),
    ("--list", false, SELECT),
    ("--list-systems", false, SELECT),
    ("--metrics", false, &["run", "top"]),
    ("--attr", false, &["run", "top"]),
    ("--trace-out", true, &["run"]),
    ("--json", true, &["run", "serve"]),
    ("--out", true, &["record", "reproduce"]),
    ("--checkpoint-every", true, &["record"]),
    ("--window", true, &["replay"]),
    ("--cell", true, &["replay"]),
    ("--fleet", true, &["serve"]),
    ("--template", false, &["serve"]),
    ("--requests", true, &["serve"]),
    ("--duration", true, &["serve"]),
    ("--balancer", true, &["serve"]),
    ("--threads", true, &["serve"]),
    ("--help", false, ALL),
    ("-h", false, ALL),
];

/// A command line checked against [`FLAGS`]: the subcommand, each flag
/// in command-line order with its value (empty for a switch), and the
/// bare arguments (`replay`'s recording file).
struct Args {
    cmd: &'static str,
    flags: Vec<(&'static Flag, String)>,
    files: Vec<String>,
}

/// Splits off the subcommand and checks every flag against [`FLAGS`].
fn parse(argv: &[String]) -> Result<Args, String> {
    let sub = argv
        .first()
        .and_then(|a| SUBCOMMANDS.into_iter().find(|c| c == a));
    let (cmd, rest) = match sub {
        Some(cmd) => (cmd, &argv[1..]),
        None => ("run", argv),
    };
    let mut it = rest.iter();
    let (mut flags, mut files) = (Vec::new(), Vec::new());
    while let Some(arg) = it.next() {
        let Some(flag) = FLAGS.iter().find(|f| f.0 == arg) else {
            if cmd == "replay" && !arg.starts_with('-') {
                files.push(arg.clone());
                continue;
            }
            return Err(format!("unknown argument `{arg}` (see --help)"));
        };
        let (name, takes_value, cmds) = flag;
        if !cmds.contains(&cmd) {
            return Err(format!(
                "{name} does not apply to `{cmd}`; it is for: {}",
                cmds.join(", ")
            ));
        }
        let value = if *takes_value {
            it.next().ok_or_else(|| format!("{name} needs a value"))?
        } else {
            ""
        };
        flags.push((flag, value.to_string()));
    }
    Ok(Args { cmd, flags, files })
}

impl Args {
    /// The last value given for `flag`.
    fn get(&self, flag: &str) -> Option<&str> {
        let mut given = self.flags.iter().rev();
        given.find(|(f, _)| f.0 == flag).map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// The last value given for `flag`, converted to `T`.
    fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("bad {flag} value `{v}`")))
            .transpose()
    }

    /// `--attr`, which `top` always sets.
    fn attr(&self) -> bool {
        self.cmd == "top" || self.has("--attr")
    }

    /// `--metrics`, implied by `--attr` and `--trace-out`.
    fn metrics(&self) -> bool {
        self.attr() || self.has("--metrics") || self.has("--trace-out")
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(argv: &[String]) -> CliResult {
    let args = parse(argv)?;
    match args.cmd {
        _ if args.has("--help") || args.has("-h") => println!("{}", usage()),
        _ if args.has("--list") => print_list(),
        _ if args.has("--list-systems") => list_systems(),
        "record" => return cmd_record(&args),
        "replay" => return cmd_replay(&args),
        "reproduce" => return cmd_reproduce(&args),
        "serve" => return cmd_serve(&args),
        "top" => return cmd_top(&args),
        _ => return cmd_run(&args),
    }
    Ok(())
}

fn usage() -> &'static str {
    r#"dramless-sim: simulate the DRAM-less accelerated systems

USAGE:
  dramless-sim [--system <name>|all] [--spec <file.json>]
               [--kernel <name>|all] [--scale <f>] [--seed <n>]
               [--agents <n>] [--tier accurate|analytic]
               [--json <path>] [--metrics] [--attr]
               [--faults <file.json>] [--trace-out <path>]
               [--list] [--list-systems]
  dramless-sim record [selection flags as above] [--out <run.json>]
               [--checkpoint-every <n>]
  dramless-sim replay <run.json> [--window <a>..<b>] [--cell <i>]
  dramless-sim serve --fleet <fleet.json> [--requests <n>]
               [--duration <ms>] [--balancer <name>] [--seed <n>]
               [--threads <n>] [--json <report.json>]
  dramless-sim serve --template
  dramless-sim top [selection flags for ONE system x ONE kernel]
  dramless-sim reproduce [--out <dir>]

SUBCOMMANDS:
  record          run the selected cells deterministically, emitting a
                  recording: per-cell run fingerprints (schedule
                  content-address, chained request-stream digest, report
                  hash), the tape of every backend request's completion
                  time, and backend checkpoints every --checkpoint-every
                  requests (default 50000); writes --out
                  [default: run.json]
  replay          re-execute a recording and fail loudly on the first
                  completion or fingerprint that differs; with --window
                  <a>..<b>, run cell --cell [default: 0] on its tape to
                  the nearest checkpoint at or before request <a>,
                  restore the backend's image there and re-execute just
                  [a, b) against it
  reproduce       run the paper's evaluation once and write one JSON file
                  per figure and table, plus claims.md (the claims table),
                  to --out [default: repro]; exits 1 if a claim misses its
                  band
  serve           fleet-scale multi-tenant serving: a seeded open-loop
                  arrival process (poisson, bursty, diurnal) drives
                  requests from many tenants across N simulated
                  accelerators via a pluggable balancer (round-robin,
                  least-loaded, qos-aware with admission control);
                  prints per-class and per-accelerator QoS tables plus
                  worst-request latency attribution; byte-identical at
                  any --threads count; --template prints a starter
                  FleetSpec JSON; --requests/--duration/--balancer/
                  --seed override the spec file
  top             tail forensics: run ONE system x ONE kernel with
                  attribution on and print the cause breakdown, per-phase
                  totals, and the top-K worst requests — each exec-phase
                  entry names the request window to hand to
                  `dramless-sim replay --window` for isolation

OPTIONS:
  --system        a Table I system (e.g. dram-less, hetero, page-buffer),
                  or `all` for every evaluated design  [default: dram-less]
  --spec          a SystemSpec JSON file composing a custom system
                  (medium x datapath x buffer x control); repeatable,
                  and combines with --system
  --kernel        a Polybench kernel (e.g. gemver, doitg), or `all`
                  [default: gemver]
  --scale         workload scale factor                [default: 1.0]
  --seed          determinism seed                     [default: 42]
  --agents        agent PEs running the kernel         [default: 7]
  --tier          fidelity tier for every cell: `accurate` replays
                  each request cycle-accurately, `analytic` prices the
                  memory schedule with the calibrated closed form
                  (~40x faster, within committed per-preset drift
                  bounds)                              [default: accurate]
  --json          also write the full SuiteResult as JSON
  --metrics       switch on telemetry for every cell: per-component
                  counters and latency histograms, printed after the
                  table and embedded in --json output
  --attr          also attribute every memory request's latency to
                  typed causes (queue wait, partition conflict,
                  erase-blocked, buffer hit vs. array access, bursts,
                  retry stalls, ...); prints a per-cell summary and adds
                  a `latency_attribution` block to --json reports;
                  implies --metrics
  --faults        a FaultPlan JSON file: arm seeded, deterministic
                  fault injection (PRAM drift/disturb/wear, SSD
                  transients) plus ECC/retry/retirement for every
                  cell; reports gain a `degraded` section
  --trace-out     run ONE system x ONE kernel with event tracing and
                  write a Chrome trace-event JSON (load in Perfetto:
                  https://ui.perfetto.dev); implies --metrics
  --list          print the available systems and kernels, then exit
  --list-systems  print each preset's spec axes, then exit
  -h, --help      print this help, then exit

EXAMPLES:
  # A configuration Table I never built: TLC flash over P2P DMA.
  cat > tlc.json <<'EOF'
  { "name": "tlc-p2p",
    "medium": { "FlashSsd": { "cell": "Tlc" } },
    "datapath": "P2pDma",
    "buffer": { "DramPageCache": { "frames": null } },
    "control": { "HardwareAutomated": { "scheduler": "Final" } } }
  EOF
  dramless-sim --spec tlc.json --system dram-less --kernel gemver"#
}

/// The systems `--list` names and `--system` accepts.
fn presets() -> impl Iterator<Item = SystemKind> {
    SystemKind::EVALUATED.into_iter().chain([SystemKind::Ideal])
}

fn parse_system(name: &str) -> Option<SystemKind> {
    let norm = name.to_ascii_lowercase().replace(['_', ' '], "-");
    presets().find(|k| {
        k.label().eq_ignore_ascii_case(name)
            || k.label()
                .to_ascii_lowercase()
                .replace([' ', '(', ')'], "-")
                .trim_matches('-')
                == norm
    })
}

fn parse_kernel(name: &str) -> Option<Kernel> {
    Kernel::ALL
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(name))
}

/// Reads and decodes a JSON input file.
fn load<T: FromJson>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    T::from_json_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

fn print_list() {
    println!("systems:");
    for k in presets() {
        println!("  {}", k.label());
    }
    println!("kernels:");
    for k in Kernel::ALL {
        println!("  {}", k.label());
    }
}

fn list_systems() {
    println!(
        "{:<22} {:<21} {:<15} {:<12} control",
        "preset", "medium", "datapath", "buffer"
    );
    for k in presets() {
        let s = k.spec();
        println!(
            "{:<22} {:<21} {:<15} {:<12} {}",
            k.label(),
            s.medium.label(),
            s.datapath.label(),
            s.buffer.label(),
            s.control.label()
        );
    }
    println!("\nany other medium x datapath x buffer x control combination");
    println!("can be composed as a JSON file and run with --spec <file>.");
}

/// The `(id, spec)` cells of a grid: presets first, then `--spec` files.
type Systems = Vec<(SystemId, SystemSpec)>;

/// Converts the selection flags into the grid `run`, `record` and `top`
/// simulate: the systems with the tier, telemetry and fault knobs
/// applied, the workloads, and the system parameters.
fn grid(args: &Args) -> CliResult<(Systems, Vec<Workload>, SystemParams)> {
    let defaults = SystemParams::default();
    let params = SystemParams {
        seed: args.parsed("--seed")?.unwrap_or(defaults.seed),
        agents: args.parsed("--agents")?.unwrap_or(defaults.agents),
        ..defaults
    };
    params.validate()?;
    let scale = Scale(args.parsed("--scale")?.unwrap_or(Scale::paper().0));
    scale.validate()?;
    let kernels = match args.get("--kernel") {
        Some("all") => Kernel::ALL.to_vec(),
        Some(v) => vec![parse_kernel(v).ok_or_else(|| format!("unknown kernel `{v}`"))?],
        None => vec![Kernel::Gemver],
    };
    let presets = match args.get("--system") {
        Some("all") => SystemKind::EVALUATED.to_vec(),
        Some(v) => vec![parse_system(v).ok_or_else(|| format!("unknown system `{v}`"))?],
        // The proposed design, unless the user only asked for custom specs.
        None if args.has("--spec") => Vec::new(),
        None => vec![SystemKind::DramLess],
    };
    let mut systems: Systems = presets
        .into_iter()
        .map(|k| (SystemId::Preset(k), k.spec()))
        .collect();
    for (_, path) in args.flags.iter().filter(|(f, _)| f.0 == "--spec") {
        let spec: SystemSpec = load(path)?;
        systems.push((SystemId::Custom(spec.display_name()), spec));
    }
    let tier = match args.get("--tier").map(str::to_ascii_lowercase).as_deref() {
        None => None,
        Some("accurate") => Some(FidelityTier::Accurate),
        Some("analytic") => Some(FidelityTier::Analytic),
        Some(v) => return Err(format!("unknown tier `{v}` (accurate|analytic)").into()),
    };
    let faults: Option<FaultPlan> = args.get("--faults").map(load).transpose()?;
    for (_, spec) in &mut systems {
        spec.tier = tier.unwrap_or(spec.tier);
        if args.metrics() {
            let tel = spec.telemetry.get_or_insert_with(Default::default);
            tel.attribution |= args.attr();
        }
        if let Some(plan) = &faults {
            spec.faults = Some(plan.clone());
        }
    }
    let workloads = kernels
        .into_iter()
        .map(|k| Workload::of(k, scale))
        .collect();
    Ok((systems, workloads, params))
}

/// Checks that a grid is one cell; `what` says who needs that.
fn one_cell(systems: &Systems, workloads: &[Workload], what: &str) -> Result<(), String> {
    if systems.len() == 1 && workloads.len() == 1 {
        return Ok(());
    }
    Err(format!(
        "{what} exactly one cell; pick one system (or one --spec) and one kernel"
    ))
}

fn print_header() {
    println!(
        "{:<22} {:<10} {:>12} {:>15} {:>12} {:>12}",
        "system", "kernel", "total time", "bandwidth", "energy", "aggregate"
    );
}

fn print_metrics(metrics: &util::telemetry::MetricSet) {
    if metrics.is_empty() {
        return;
    }
    println!("\nmetrics:");
    for (name, v) in metrics.iter() {
        match v {
            MetricValue::Counter(c) => println!("  {name:<28} {c}"),
            MetricValue::Gauge(g) => println!("  {name:<28} {g:.3}"),
            MetricValue::Histogram(h) => println!(
                "  {name:<28} n={} p50={}ns p90={}ns p99={}ns",
                h.count(),
                h.quantile_ns(0.5),
                h.quantile_ns(0.9),
                h.quantile_ns(0.99)
            ),
        }
    }
}

fn print_row(out: &RunOutcome) {
    println!(
        "{:<22} {:<10} {:>12} {:>10.1} MB/s {:>12} {:>8.3} IPC",
        out.system.name(),
        out.kernel.label(),
        format!("{}", out.total_time),
        out.bandwidth() / 1e6,
        format!("{}", out.total_energy()),
        out.total_ipc()
    );
}

/// The chaos-tier human summary: what was injected and what it cost,
/// readable without digging through the JSON `degraded` block.
fn print_degraded(d: &FaultCounters) {
    println!("\ndegraded:");
    println!(
        "  {} injected; ecc: {} corrected, {} uncorrectable; \
         {} retries, {} lines retired",
        d.injected, d.ecc_corrected, d.ecc_uncorrectable, d.retries, d.retired_lines
    );
    println!(
        "  ssd: {} transient faults, {} replays",
        d.ssd_transient_faults, d.ssd_retries
    );
    println!(
        "  retry stall: {} of request latency spent in retry/recovery",
        Picos::from_ps(d.retry_stall_ps)
    );
}

/// Percentage rendering that keeps tiny-but-nonzero shares visible.
fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        return "0.0%".to_string();
    }
    format!("{:.1}%", part as f64 * 100.0 / whole as f64)
}

/// One compact cause breakdown line: nonzero causes in declaration
/// order, each with its share of `whole`.
fn cause_line(causes: &[u64; sim_core::probe::NUM_CAUSES], whole: u64) -> String {
    Cause::ALL
        .into_iter()
        .filter(|&c| causes[c as usize] > 0)
        .map(|c| format!("{} {}", c.key(), pct(causes[c as usize], whole)))
        .collect::<Vec<_>>()
        .join("  ")
}

/// The per-cell attribution summary printed under `--attr`.
fn print_attr(out: &RunOutcome) {
    let Some(a) = &out.attr else { return };
    println!(
        "\nlatency attribution ({}/{}): {} requests, {} wall, {}",
        out.system.name(),
        out.kernel.label(),
        a.records,
        Picos::from_ps(a.wall_ps),
        if a.conserves() {
            "conserving".to_string()
        } else {
            format!("{} violation(s)", a.violations)
        }
    );
    println!("  causes: {}", cause_line(&a.total_causes(), a.wall_ps));
    for s in &a.scopes {
        println!(
            "  {:<9} {:>8} req {:>10}  {}",
            s.scope.key(),
            s.records,
            format!("{}", Picos::from_ps(s.wall_ps)),
            cause_line(&s.causes, s.wall_ps)
        );
    }
}

fn cmd_run(args: &Args) -> CliResult {
    let (systems, workloads, params) = grid(args)?;
    let json = args.get("--json");
    if let Some(path) = args.get("--trace-out") {
        // A trace run is one cell whose full event trace is kept.
        one_cell(&systems, &workloads, "--trace-out traces")?;
        let built = workloads[0].build(params.agents);
        let (out, events) = dramless::simulate_spec_traced(&systems[0].1, &built, &params)?;
        write(path, &chrome_trace(&events).to_json_pretty())?;
        let result = SuiteResult {
            outcomes: vec![out],
        };
        print_suite(&result, None, true);
        println!(
            "\nwrote {} trace events to {path} (open in https://ui.perfetto.dev)",
            events.len()
        );
        if let Some(json) = json {
            write(json, &result.to_json())?;
        }
        return Ok(());
    }
    // The sweep engine returns outcomes in workload-major order.
    let (result, stats) =
        dramless::sweep::sweep_systems_on(pool::global(), &systems, &workloads, &params)?;
    print_suite(&result, Some(&stats), args.metrics());
    if let Some(path) = json {
        write(path, &result.to_json())?;
        println!("\nwrote {} outcomes to {path}", result.outcomes.len());
    }
    Ok(())
}

/// Prints a finished grid: the table, the sweep's wall-clock line, the
/// aggregate metrics and fault ledger when `metrics` is on, and each
/// attributed cell's summary.
fn print_suite(result: &SuiteResult, stats: Option<&SweepStats>, metrics: bool) {
    print_header();
    for out in &result.outcomes {
        print_row(out);
    }
    if let Some(stats) = stats {
        println!(
            "\n{} cells in {:.3}s on {} thread(s) — {:.1} cells/s \
             (build {:.3}s, execute {:.3}s)",
            stats.cells,
            stats.elapsed.as_secs_f64(),
            stats.threads,
            stats.cells_per_sec(),
            stats.build.as_secs_f64(),
            stats.execute.as_secs_f64()
        );
    }
    if metrics {
        print_metrics(&result.aggregate_metrics());
        if let Some(d) = result.aggregate_degraded() {
            print_degraded(&d);
        }
    }
    for out in &result.outcomes {
        print_attr(out);
    }
}

fn cmd_record(args: &Args) -> CliResult {
    let every = match args.parsed("--checkpoint-every")? {
        Some(0) => return Err("--checkpoint-every must be >= 1".into()),
        every => every.unwrap_or(replay::DEFAULT_CHECKPOINT_EVERY),
    };
    let (systems, workloads, params) = grid(args)?;
    let rec = replay::record_run(&systems, &workloads, &params, every)?;
    let out = args.get("--out").unwrap_or("run.json");
    write(out, &rec.to_json_string())?;
    println!(
        "{:<22} {:<10} {:>12} {:>12} {:>18} {:>18}",
        "system", "kernel", "requests", "checkpoints", "stream", "report"
    );
    for cell in &rec.cells {
        println!(
            "{:<22} {:<10} {:>12} {:>12} {:>#18x} {:>#18x}",
            cell.outcome.system.name(),
            cell.outcome.kernel.label(),
            cell.fingerprint.requests,
            cell.checkpoints.len(),
            cell.fingerprint.stream,
            cell.fingerprint.report
        );
    }
    println!(
        "\nwrote {} cell(s) to {out} (checkpoint every {every} requests)",
        rec.cells.len()
    );
    Ok(())
}

/// The flags of `args` that `record` takes, as given, so `top`'s hint
/// records the cell it profiled (attribution is passive, so a recording
/// made without `--attr` carries the identical request stream).
fn record_flags(args: &Args) -> String {
    args.flags
        .iter()
        .filter(|(f, _)| f.2.contains(&"record"))
        .map(|(f, v)| format!(" {} {}", f.0, shell_word(v)))
        .collect()
}

/// `v` as one POSIX shell word.
fn shell_word(v: &str) -> String {
    let plain = |b: u8| b.is_ascii_alphanumeric() || b"-_./:=+,".contains(&b);
    if !v.is_empty() && v.bytes().all(plain) {
        v.to_string()
    } else {
        format!("'{}'", v.replace('\'', r"'\''"))
    }
}

/// `top` — tail forensics for one cell: run it with attribution on and
/// print the cause breakdown plus the top-K worst requests, each with
/// the replay handle that isolates it.
fn cmd_top(args: &Args) -> CliResult {
    let (systems, workloads, params) = grid(args)?;
    one_cell(&systems, &workloads, "top profiles")?;
    let (result, _) =
        dramless::sweep::sweep_systems_on(pool::global(), &systems, &workloads, &params)?;
    let out = &result.outcomes[0];
    let a = out
        .attr
        .as_ref()
        .ok_or("the run produced no attribution summary")?;
    print_header();
    print_row(out);
    print_attr(out);
    if let Some(d) = &out.degraded {
        print_degraded(d);
    }
    print_top_table(a);
    if let Some(worst) = a.top.iter().find(|t| t.scope == AttrScope::Exec) {
        println!(
            "\nisolate the worst exec-phase request without re-running the sweep:\n  \
             dramless-sim record{} --out run.json\n  \
             dramless-sim replay run.json --window {}..{}",
            record_flags(args),
            worst.index,
            worst.index + 1
        );
    }
    Ok(())
}

/// The tail-forensics table: worst requests first, full decomposition.
fn print_top_table(a: &AttrSummary) {
    println!("\ntop {} worst requests:", a.top.len());
    println!(
        "{:>3} {:<10} {:>10} {:<14} {:>12} {:>12}  causes",
        "#", "scope", "index", "source", "start", "duration"
    );
    for (i, t) in a.top.iter().enumerate() {
        println!(
            "{:>3} {:<10} {:>10} {:<14} {:>12} {:>12}  {}",
            i + 1,
            t.scope.key(),
            t.index,
            t.source,
            format!("{}", Picos::from_ps(t.start_ps)),
            format!("{}", Picos::from_ps(t.dur_ps)),
            cause_line(&t.causes, t.dur_ps)
        );
    }
}

/// Parses a `<a>..<b>` request window.
fn parse_window(s: &str) -> Result<Range<u64>, String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("bad window `{s}` (want <a>..<b>)"))?;
    let start: u64 = a.parse().map_err(|_| format!("bad window start `{a}`"))?;
    let end: u64 = b.parse().map_err(|_| format!("bad window end `{b}`"))?;
    if start >= end {
        return Err(format!("empty window `{s}`"));
    }
    Ok(start..end)
}

fn cmd_replay(args: &Args) -> CliResult {
    let [path] = args.files.as_slice() else {
        return Err("replay takes one recording file (dramless-sim replay <run.json>)".into());
    };
    let window = args.get("--window").map(parse_window).transpose()?;
    let cell = args.parsed("--cell")?.unwrap_or(0);
    let rec: Recording = load(path)?;
    let failed = |e: dramless::ReplayError| format!("replay FAILED: {e}");
    match window {
        Some(w) => {
            let r = replay::replay(&rec, cell, w).map_err(failed)?;
            println!(
                "{}: resumed at request {} (nearest checkpoint), replayed to \
                 {}, re-verified {} checkpoint(s){}",
                r.cell,
                r.resumed_at,
                r.replayed_to,
                r.verified_checkpoints,
                if r.completed {
                    "; ran to completion — final stream and report fingerprints match"
                } else {
                    ""
                }
            );
        }
        None => {
            let reports = replay::verify(&rec).map_err(failed)?;
            for r in &reports {
                println!(
                    "{}: verified — {} request(s), {} checkpoint(s), report matches",
                    r.cell, r.replayed_to, r.verified_checkpoints
                );
            }
            println!("\n{} cell(s) verified against {path}", reports.len());
        }
    }
    Ok(())
}

/// `reproduce` — the paper's evaluation: one JSON file per figure and
/// table plus `claims.md`, written to `--out`.
fn cmd_reproduce(args: &Args) -> CliResult {
    let dir = args.get("--out").unwrap_or("repro");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let (files, missed) = dramless::paper::reproduce(pool::global());
    for (name, text) in &files {
        write(&format!("{dir}/{name}"), text)?;
    }
    let (_, claims) = files.last().expect("claims.md comes last");
    println!("{claims}\nwrote {} files to {dir}/", files.len());
    if !missed.is_empty() {
        return Err(format!("claims outside their band: {}", missed.join(", ")).into());
    }
    Ok(())
}

/// Loads `--fleet` and applies the flags that override its fields.
fn fleet_spec(args: &Args) -> CliResult<FleetSpec> {
    let path = args
        .get("--fleet")
        .ok_or("serve needs --fleet <fleet.json> (or --template for a starter spec)")?;
    let mut spec: FleetSpec = load(path)?;
    spec.requests = args.parsed("--requests")?.unwrap_or(spec.requests);
    spec.duration_ms = args.parsed("--duration")?.unwrap_or(spec.duration_ms);
    spec.seed = args.parsed("--seed")?.unwrap_or(spec.seed);
    if let Some(v) = args.get("--balancer") {
        spec.balancer = BalancerKind::from_label(v).ok_or_else(|| {
            let known: Vec<&str> = BalancerKind::ALL.iter().map(|b| b.label()).collect();
            format!("unknown balancer `{v}` (one of: {})", known.join(", "))
        })?;
    }
    Ok(spec)
}

fn cmd_serve(args: &Args) -> CliResult {
    if args.has("--template") {
        if args.flags.len() > 1 {
            return Err("--template prints a starter spec and takes no other flags".into());
        }
        println!("{}", FleetSpec::example().to_json_pretty());
        return Ok(());
    }
    let spec = fleet_spec(args)?;
    let own_pool = match args.parsed("--threads")? {
        Some(0) => return Err("--threads must be at least 1".into()),
        threads => threads.map(Pool::new),
    };
    let started = std::time::Instant::now();
    let report = run_fleet_on(own_pool.as_ref().unwrap_or_else(|| pool::global()), &spec)?;
    let elapsed = started.elapsed();
    print_fleet_report(&report);
    println!(
        "\nserved {} request(s) in {:.3}s wall — {:.0} req/s simulated \
         (re-run byte-identically at any --threads from the same spec + seed)",
        report.offered,
        elapsed.as_secs_f64(),
        report.offered as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    report
        .check_conservation()
        .map_err(|e| format!("conservation check FAILED: {e}"))?;
    if let Some(json) = args.get("--json") {
        write(json, &report.to_json_pretty())?;
        println!("wrote fleet report to {json}");
    }
    Ok(())
}

/// Prints the per-class / per-tenant / per-accelerator QoS tables.
fn print_fleet_report(r: &FleetReport) {
    println!(
        "fleet `{}` — {} balancer, {} accelerator(s), {} tenant(s)",
        r.name,
        r.balancer.label(),
        r.accelerators,
        r.tenants
    );
    println!(
        "offered {} | completed {} | rejected {} | degraded {} | makespan {} | \
         {:.0} req/s offered",
        r.offered,
        r.completed,
        r.rejected,
        r.degraded,
        Picos::from_ps(r.makespan_ps),
        r.offered_rate_per_s()
    );
    println!(
        "\n{:<18} {:>8} {:>9} {:>8} {:>8} {:>12} {:>12} {:>12}",
        "class", "offered", "completed", "rejected", "degraded", "p50", "p99", "p99.9"
    );
    for (class, c) in &r.classes {
        println!(
            "{:<18} {:>8} {:>9} {:>8} {:>8} {:>12} {:>12} {:>12}",
            class.key(),
            c.offered,
            c.completed,
            c.rejected,
            c.degraded,
            format!("{}", Picos::from_ns(c.latency.quantile_ns(0.50))),
            format!("{}", Picos::from_ns(c.latency.quantile_ns(0.99))),
            format!("{}", Picos::from_ns(c.latency.quantile_ns(0.999)))
        );
    }
    println!(
        "{:<18} {:>8} {:>9} {:>8} {:>8} {:>12} {:>12} {:>12}",
        "all classes",
        r.offered,
        r.completed,
        r.rejected,
        r.degraded,
        format!("{}", Picos::from_ns(r.aggregate.quantile_ns(0.50))),
        format!("{}", Picos::from_ns(r.aggregate.quantile_ns(0.99))),
        format!("{}", Picos::from_ns(r.aggregate.quantile_ns(0.999)))
    );
    // The tenants hit hardest at the tail, worst first.
    let mut worst: Vec<_> = r.per_tenant.iter().filter(|t| t.completed > 0).collect();
    worst.sort_by_key(|t| std::cmp::Reverse((t.latency.quantile_ns(0.999), t.tenant)));
    if !worst.is_empty() {
        println!("\nworst tenants by p99.9:");
        println!(
            "{:>8} {:<18} {:>8} {:>8} {:>12} {:>12}",
            "tenant", "class", "offered", "rejected", "p50", "p99.9"
        );
        for t in worst.iter().take(5) {
            println!(
                "{:>8} {:<18} {:>8} {:>8} {:>12} {:>12}",
                t.tenant,
                t.class.key(),
                t.offered,
                t.rejected,
                format!("{}", Picos::from_ns(t.latency.quantile_ns(0.50))),
                format!("{}", Picos::from_ns(t.latency.quantile_ns(0.999)))
            );
        }
    }
    println!("\nper-accelerator:");
    println!(
        "{:>5} {:>9} {:>12} {:>12} {:>14} {:>7} {:>13}",
        "accel", "requests", "busy", "queue wait", "partition wait", "erases", "erase blocked"
    );
    for (i, a) in r.accels.iter().enumerate() {
        println!(
            "{:>5} {:>9} {:>12} {:>12} {:>14} {:>7} {:>13}",
            i,
            a.requests,
            format!("{}", Picos::from_ps(a.busy_ps)),
            format!("{}", Picos::from_ps(a.queue_wait_ps)),
            format!("{}", Picos::from_ps(a.partition_wait_ps)),
            a.erase_windows,
            format!("{}", Picos::from_ps(a.erase_blocked_ps))
        );
    }
    print_fleet_top(&r.attr);
}

/// The fleet variant of the tail-forensics table: adds the owning tenant.
fn print_fleet_top(a: &AttrSummary) {
    if a.top.is_empty() {
        return;
    }
    println!("\ntop {} worst requests:", a.top.len());
    println!(
        "{:>3} {:>8} {:>10} {:>12} {:>12}  causes",
        "#", "tenant", "request", "start", "duration"
    );
    for (i, t) in a.top.iter().enumerate() {
        println!(
            "{:>3} {:>8} {:>10} {:>12} {:>12}  {}",
            i + 1,
            t.tenant.map_or("-".to_string(), |t| t.to_string()),
            t.index,
            format!("{}", Picos::from_ps(t.start_ps)),
            format!("{}", Picos::from_ps(t.dur_ps)),
            cause_line(&t.causes, t.dur_ps)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::json::ToJson;

    fn strings(line: &[&str]) -> Vec<String> {
        line.iter().map(|s| s.to_string()).collect()
    }

    fn args(line: &[&str]) -> Args {
        parse(&strings(line)).unwrap()
    }

    /// Asserts that `parse` or `grid` rejects `line`.
    fn assert_rejected(line: &[&str]) {
        if let Ok(a) = parse(&strings(line)) {
            assert!(grid(&a).is_err(), "{line:?} was accepted");
        }
    }

    #[test]
    fn parses_defaults() {
        let (systems, workloads, params) = grid(&args(&[])).unwrap();
        // The default preset, and no custom specs.
        let dl = SystemKind::DramLess;
        assert_eq!(systems, vec![(SystemId::Preset(dl), dl.spec())]);
        assert_eq!(
            workloads,
            vec![Workload::of(Kernel::Gemver, Scale::paper())]
        );
        assert_eq!(params.seed, 42);
    }

    #[test]
    fn parses_system_aliases() {
        assert_eq!(parse_system("dram-less"), Some(SystemKind::DramLess));
        assert_eq!(parse_system("DRAM-less"), Some(SystemKind::DramLess));
        assert_eq!(parse_system("hetero"), Some(SystemKind::Hetero));
        assert_eq!(parse_system("page-buffer"), Some(SystemKind::PageBuffer));
        assert_eq!(parse_system("ideal"), Some(SystemKind::Ideal));
        assert_eq!(
            parse_system("DRAM-less (firmware)"),
            Some(SystemKind::DramLessFirmware)
        );
        assert_eq!(parse_system("nope"), None);
        // Every name `--list` prints parses back to its system.
        for k in presets() {
            assert_eq!(parse_system(k.label()), Some(k), "{}", k.label());
        }
    }

    #[test]
    fn parses_kernels() {
        assert_eq!(parse_kernel("gemver"), Some(Kernel::Gemver));
        assert_eq!(parse_kernel("jaco1D"), Some(Kernel::Jaco1d));
        assert_eq!(parse_kernel("bogus"), None);
    }

    #[test]
    fn parses_full_command_line() {
        let a = args(&[
            "--system",
            "all",
            "--kernel",
            "all",
            "--scale",
            "0.5",
            "--seed",
            "9",
            "--agents",
            "3",
            "--json",
            "/tmp/out.json",
        ]);
        let (systems, workloads, params) = grid(&a).unwrap();
        assert_eq!(systems.len(), 11);
        assert_eq!(workloads, Workload::suite(Scale(0.5)));
        assert_eq!(params.seed, 9);
        assert_eq!(params.agents, 3);
        assert_eq!(a.get("--json"), Some("/tmp/out.json"));
    }

    #[test]
    fn parses_spec_files() {
        let spec = SystemSpec {
            name: Some("cli-test".into()),
            ..SystemKind::Heterodirect.spec()
        };
        let path = std::env::temp_dir().join("dramless-sim-cli-test-spec.json");
        std::fs::write(&path, spec.to_json_pretty()).unwrap();
        let (systems, _, _) = grid(&args(&["--spec", &path.display().to_string()])).unwrap();
        // A lone --spec replaces the default preset.
        assert_eq!(systems, vec![(SystemId::Custom(spec.display_name()), spec)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parses_telemetry_flags() {
        let a = args(&["--metrics"]);
        assert!(a.metrics());
        assert!(a.get("--trace-out").is_none());
        assert!(grid(&a).unwrap().0[0].1.telemetry.is_some());
        let a = args(&["--trace-out", "/tmp/t.json"]);
        assert_eq!(a.get("--trace-out"), Some("/tmp/t.json"));
        assert!(a.metrics(), "--trace-out implies --metrics");
        assert!(parse(&strings(&["--trace-out"])).is_err());
    }

    #[test]
    fn parses_attr_flag() {
        assert!(!args(&[]).attr());
        let a = args(&["--attr"]);
        assert!(a.attr());
        assert!(a.metrics(), "--attr implies --metrics");
        let tel = grid(&a).unwrap().0[0].1.telemetry;
        assert!(tel.is_some_and(|t| t.attribution));
    }

    #[test]
    fn top_hint_round_trips_through_record() {
        let top = args(&[
            "top",
            "--system",
            "dram-less",
            "--kernel",
            "trisolv",
            "--scale",
            "0.25",
            "--seed",
            "7",
            "--agents",
            "3",
            "--tier",
            "analytic",
            "--metrics",
        ]);
        let mut line = vec!["record".to_string()];
        line.extend(record_flags(&top).split_whitespace().map(String::from));
        let (mut systems, workloads, params) = grid(&top).unwrap();
        for (_, spec) in &mut systems {
            spec.telemetry = None;
        }
        assert_eq!(
            grid(&parse(&line).unwrap()).unwrap(),
            (systems, workloads, params)
        );
        assert_eq!(shell_word("DRAM-less (firmware)"), "'DRAM-less (firmware)'");
        assert_eq!(shell_word("it's"), r"'it'\''s'");
    }

    #[test]
    fn parses_fault_plan_files() {
        let plan = FaultPlan::seeded(11);
        let path = std::env::temp_dir().join("dramless-sim-cli-test-faults.json");
        std::fs::write(&path, plan.to_json_pretty()).unwrap();
        let (systems, _, _) = grid(&args(&["--faults", &path.display().to_string()])).unwrap();
        assert_eq!(systems[0].1.faults, Some(plan));
        std::fs::remove_file(&path).ok();
        assert!(parse(&strings(&["--faults"])).is_err());
        assert_rejected(&["--faults", "/no/such/plan.json"]);
    }

    #[test]
    fn rejects_bad_input() {
        assert_rejected(&["--system", "warp-drive"]);
        assert_rejected(&["--scale", "-1"]);
        assert_rejected(&["--agents", "9"]);
        assert_rejected(&["--frobnicate"]);
        assert_rejected(&["--seed"]);
        assert_rejected(&["--spec", "/no/such/file.json"]);
        for scale in ["inf", "nan", "1e300"] {
            assert_rejected(&["--scale", scale]);
        }
        // The table rejects a flag given to a subcommand that does not
        // take it.
        for line in [
            &["--out", "x.json"][..],
            &["record", "--json", "x.json"],
            &["top", "--checkpoint-every", "5"],
            &["replay", "run.json", "--seed", "1"],
            &["serve", "--kernel", "gemver"],
        ] {
            let e = parse(&strings(line)).err().unwrap();
            assert!(e.contains("does not apply"), "{line:?}: {e}");
        }
    }

    #[test]
    fn help_documents_every_flag() {
        let words: Vec<&str> = usage()
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .collect();
        for (name, _, cmds) in FLAGS {
            assert!(words.contains(name), "--help does not mention {name}");
            // A misspelt column would silently never accept the flag.
            assert!(cmds.iter().all(|c| *c == "run" || SUBCOMMANDS.contains(c)));
        }
        assert!(SUBCOMMANDS.iter().all(|c| words.contains(c)));
        // Under each heading, every line is indented.
        for line in usage().lines().skip(1).filter(|l| !l.ends_with(':')) {
            assert!(line.is_empty() || line.starts_with("  "), "{line:?}");
        }
    }

    #[test]
    fn parses_record_flags() {
        let a = args(&["record", "--out", "rec.json", "--checkpoint-every", "500"]);
        assert_eq!(a.get("--out"), Some("rec.json"));
        assert_eq!(a.parsed::<u64>("--checkpoint-every"), Ok(Some(500)));
        // Typed errors, not panics: missing values, zero cadence, junk.
        assert!(parse(&strings(&["record", "--out"])).is_err());
        assert!(parse(&strings(&["record", "--checkpoint-every"])).is_err());
        assert!(cmd_record(&args(&["record", "--checkpoint-every", "0"])).is_err());
        assert!(cmd_record(&args(&["record", "--checkpoint-every", "soon"])).is_err());
    }

    #[test]
    fn parses_windows() {
        assert_eq!(parse_window("80..140"), Ok(80..140));
        assert_eq!(parse_window("0..1"), Ok(0..1));
        assert!(parse_window("80").is_err());
        assert!(parse_window("80..").is_err());
        assert!(parse_window("..140").is_err());
        assert!(parse_window("140..80").is_err(), "backwards window");
        assert!(parse_window("80..80").is_err(), "empty window");
        assert!(parse_window("a..b").is_err());
    }

    #[test]
    fn parses_serve_command_lines() {
        let path = std::env::temp_dir().join("dramless-sim-cli-test-fleet.json");
        std::fs::write(&path, FleetSpec::example().to_json_pretty()).unwrap();
        let fleet = path.display().to_string();
        let a = args(&[
            "serve",
            "--fleet",
            &fleet,
            "--requests",
            "10000",
            "--duration",
            "250",
            "--balancer",
            "qos-aware",
            "--seed",
            "7",
            "--threads",
            "4",
            "--json",
            "report.json",
        ]);
        let spec = fleet_spec(&a).unwrap();
        assert_eq!(a.get("--fleet"), Some(fleet.as_str()));
        assert_eq!(spec.requests, 10_000);
        assert_eq!(spec.duration_ms, 250);
        assert_eq!(spec.balancer, BalancerKind::QosAware);
        assert_eq!(spec.seed, 7);
        assert_eq!(a.parsed::<usize>("--threads"), Ok(Some(4)));
        assert_eq!(a.get("--json"), Some("report.json"));
        assert!(!a.has("--template"));
        // Template mode stands alone.
        assert!(args(&["serve", "--template"]).has("--template"));
        assert!(cmd_serve(&args(&["serve", "--template", "--fleet", "f.json"])).is_err());
        // Typed errors, not panics.
        assert!(cmd_serve(&args(&["serve"])).is_err(), "--fleet is required");
        assert!(parse(&strings(&["serve", "--fleet"])).is_err());
        let e = cmd_serve(&args(&["serve", "--fleet", &fleet, "--threads", "0"]));
        assert!(e.unwrap_err().to_string().contains("--threads"));
        let e = fleet_spec(&args(&["serve", "--fleet", &fleet, "--balancer", "warp"]));
        assert!(e.unwrap_err().to_string().contains("warp"));
        assert!(parse(&strings(&["serve", "--bogus"])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_template_spec_round_trips() {
        let spec = FleetSpec::example();
        let parsed = FleetSpec::from_json_str(&spec.to_json_pretty()).unwrap();
        assert_eq!(parsed, spec);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn parses_replay_command_lines() {
        let a = args(&["replay", "run.json", "--window", "80..140", "--cell", "3"]);
        assert_eq!(a.files, vec!["run.json".to_string()]);
        assert_eq!(a.get("--window").map(parse_window), Some(Ok(80..140)));
        assert_eq!(a.parsed::<usize>("--cell"), Ok(Some(3)));
        // Defaults: whole-recording verify of cell 0.
        let a = args(&["replay", "run.json"]);
        assert_eq!(a.get("--window"), None);
        assert_eq!(a.parsed::<usize>("--cell"), Ok(None));
        // Typed errors, not panics.
        assert!(
            cmd_replay(&args(&["replay"])).is_err(),
            "missing recording file"
        );
        assert!(cmd_replay(&args(&["replay", "a.json", "b.json"])).is_err());
        assert!(parse(&strings(&["replay", "run.json", "--window"])).is_err());
        assert!(cmd_replay(&args(&["replay", "run.json", "--cell", "x"])).is_err());
        assert!(parse(&strings(&["replay", "run.json", "--bogus"])).is_err());
    }
}
