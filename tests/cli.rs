//! The `dramless-sim` binary end to end. Malformed command lines exit 1
//! with an `error:` line, never a panic's 101; each subcommand's happy
//! path runs on a tiny cell.

use dramless::paper::{CLAIMS_BEGIN, CLAIMS_END};
use dramless::{
    replay, simulate_spec_traced, FleetSpec, ReplayError, SuiteResult, SystemId, SystemKind,
    SystemParams,
};
use std::path::PathBuf;
use std::process::{Command, Output};
use util::fingerprint::fnv1a;
use util::json::{FromJson, Json, ToJson};
use util::telemetry::chrome_trace;
use workloads::{Kernel, Scale, Workload};

/// The committed byte goldens: `name digest` rows (see the file).
const GOLDENS: &str = include_str!("../crates/dramless/goldens.txt");

/// The selection every happy path runs: one small, fast cell.
const TINY: [&str; 4] = ["--scale", "0.1", "--agents", "2"];

/// A working directory of one test's own, removed when dropped.
struct Dir(PathBuf);

impl Dir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dramless-cli-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Dir(dir)
    }

    /// Runs the binary here.
    fn sim(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_dramless-sim"))
            .args(args)
            .current_dir(&self.0)
            .output()
            .expect("the binary runs")
    }

    /// Runs the binary here, asserts it succeeded, and returns stdout.
    fn ok(&self, args: &[&str]) -> String {
        let out = self.sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} failed: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    }

    fn write(&self, file: &str, contents: &str) {
        std::fs::write(self.0.join(file), contents).unwrap();
    }

    fn read(&self, file: &str) -> String {
        std::fs::read_to_string(self.0.join(file)).unwrap()
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The value at `path` (object keys, array indices) inside `v`.
fn at<'j>(mut v: &'j mut Json, path: &[&str]) -> &'j mut Json {
    for key in path {
        v = match v {
            Json::Obj(pairs) => {
                let pair = pairs.iter_mut().find(|(k, _)| k == key);
                &mut pair.expect("the image has the key").1
            }
            Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
            _ => panic!("{key} indexes a scalar"),
        };
    }
    v
}

#[test]
fn malformed_command_lines_exit_1_with_an_error_line() {
    let dir = Dir::new("malformed");
    dir.write("fleet.json", &FleetSpec::example().to_json_pretty());
    let huge = FleetSpec {
        scale: 1e300,
        ..FleetSpec::example()
    };
    dir.write("huge-fleet.json", &huge.to_json_pretty());
    let slots = FleetSpec {
        slots_per_accel: 1_000_000_000_000,
        ..FleetSpec::example()
    };
    dir.write("slots-fleet.json", &slots.to_json_pretty());
    // A well-formed recording whose workload claims n = 10^15.
    let systems = [(
        SystemId::Preset(SystemKind::DramLess),
        SystemKind::DramLess.spec(),
    )];
    let params = SystemParams {
        agents: 2,
        ..SystemParams::default()
    };
    let w = Workload::of(Kernel::Gemver, Scale(0.1));
    let mut rec = replay::record_run(&systems, &[w], &params, 1000).unwrap();
    let mut stray = rec.clone();
    rec.cells[0].workload.n = 1_000_000_000_000_000;
    assert!(matches!(
        replay::verify(&rec),
        Err(ReplayError::Workload(_))
    ));
    dir.write("huge-n.json", &rec.to_json_string());
    // The same recording with one key no build writes in the
    // request-zero checkpoint's controller image.
    let backend = &mut stray.cells[0].checkpoints[0].backend;
    assert_eq!(backend.kind, "pram-ctrl/controller");
    let Json::Obj(pairs) = &mut backend.data else {
        panic!("controller images are objects")
    };
    pairs.push(("stray_key".into(), Json::Null));
    dir.write("stray-key.json", &stray.to_json_string());
    // A recording whose checkpoint-1 cursor image decodes but could not
    // come from its run: agent 0 at a `step` past its schedule or at an
    // `event` index its steps do not give, a PSC listing 2 PEs, a series
    // bucket width of 0, clocks that disagree with each other, or clocks
    // so near 2^64 that the replay's next add would wrap.
    let w = Workload::of(Kernel::Trisolv, Scale(0.25));
    let rec = replay::record_run(&systems, &[w], &SystemParams::default(), 64).unwrap();
    let ckpt = &rec.cells[0].checkpoints[1];
    assert_eq!(ckpt.exec.kind, "accel/schedule-cursor");
    let window = format!("{}..{}", ckpt.requests, ckpt.requests + 36);
    let image = &ckpt.exec.data;
    let step = image
        .get("agents")
        .and_then(|a| a.as_arr()?[0].get("step")?.as_u64());
    let states = image
        .get("psc")
        .and_then(|p| p.get("states")?.as_arr())
        .expect("cursor images carry the PSC's states");
    assert!(states.len() > 2);
    // Writes `file`: the recording with checkpoint 1's cursor image
    // changed by `edit`.
    let forge = |file: &str, edit: &dyn Fn(&mut Json)| {
        let mut forged = rec.clone();
        edit(&mut forged.cells[0].checkpoints[1].exec.data);
        dir.write(file, &forged.to_json_string());
    };
    let agent0 = |field| ["agents", "0", field];
    forge("forged-step.json", &|c| {
        *at(c, &agent0("step")) = (step.unwrap() + 1_000_000).to_json()
    });
    forge("forged-event.json", &|c| {
        *at(c, &agent0("event")) = 1_000_000_000u64.to_json()
    });
    forge("forged-psc.json", &|c| {
        *at(c, &["psc", "states"]) = Json::Arr(states[..2].to_vec())
    });
    for series in ["ipc_series", "power_series"] {
        forge(&format!("forged-{series}.json"), &|c| {
            *at(c, &[series, "bucket_width"]) = 0u64.to_json()
        });
    }
    forge("forged-time.json", &|c| {
        *at(c, &agent0("time")) = 0u64.to_json()
    });
    forge("forged-times.json", &|c| {
        *at(c, &["times", "0"]) = 0u64.to_json()
    });
    forge("forged-start.json", &|c| {
        *at(c, &["start"]) = 1_000_000_000_000_000u64.to_json()
    });
    let count = |key| {
        image
            .get(key)
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len)
    };
    // 2^64 − `below`.
    let late = |below: u64| (u64::MAX - below + 1).to_json();
    let late_clocks = |c: &mut Json| {
        for i in 0..count("agents") {
            let i = i.to_string();
            *at(c, &["agents", &i, "time"]) = late(1000);
            *at(c, &["times", &i]) = late(1000);
        }
    };
    forge("forged-late-clocks.json", &late_clocks);
    forge("forged-late-wq.json", &|c| {
        for i in 0..count("wq") {
            *at(c, &["wq", &i.to_string()]) = late(1000);
        }
    });
    forge("forged-late-start.json", &|c| {
        late_clocks(c);
        *at(c, &["start"]) = late(1010);
    });
    // The committed inputs CI runs, each with one key misspelled.
    let plan = include_str!("../examples/chaos-plan.json");
    let tlc = include_str!("../examples/tlc-p2p.json");
    dir.write("plan.json", plan);
    dir.write("tlc.json", tlc);
    dir.write(
        "bad-plan.json",
        &plan.replacen("\"drift_rate\"", "\"drift_rat\"", 1),
    );
    dir.write(
        "bad-tlc.json",
        &tlc.replacen("\"scheduler\"", "\"schedulr\"", 1),
    );
    let fleet = FleetSpec::example().to_json_pretty();
    dir.write(
        "bad-fleet.json",
        &fleet.replacen("\"tenants\"", "\"tennants\"", 1),
    );

    // Each row: a command line and a phrase its error line must carry.
    for (line, needle) in [
        (&["--scale", "inf"][..], ""),
        (&["--scale", "1e300"], ""),
        (&["--scale", "nan"], ""),
        (
            &["serve", "--fleet", "huge-fleet.json", "--requests", "10"],
            "",
        ),
        (
            &["serve", "--fleet", "slots-fleet.json", "--requests", "10"],
            "invalid fleet spec: accelerators x slots_per_accel",
        ),
        (
            &[
                "serve",
                "--fleet",
                "fleet.json",
                "--requests",
                "0",
                "--duration",
                "18446744074",
            ],
            "invalid fleet spec: duration_ms",
        ),
        (&["replay", "huge-n.json"], ""),
        (&["replay", "huge-n.json", "--window", "0..10"], ""),
        (&["replay", "stray-key.json"], "stray_key"),
        (
            &["replay", "forged-step.json", "--window", window.as_str()],
            "agent 0: `step`",
        ),
        (
            &["replay", "forged-event.json", "--window", window.as_str()],
            "agent 0: `event`",
        ),
        (
            &["replay", "forged-psc.json", "--window", window.as_str()],
            "`psc` lists 2 PEs",
        ),
        (
            &[
                "replay",
                "forged-ipc_series.json",
                "--window",
                window.as_str(),
            ],
            "ipc_series: TimeSeries: bucket_width must be non-zero",
        ),
        (
            &[
                "replay",
                "forged-power_series.json",
                "--window",
                window.as_str(),
            ],
            "power_series: TimeSeries: bucket_width must be non-zero",
        ),
        (
            &["replay", "forged-time.json", "--window", window.as_str()],
            "agent 0: `time` 0 ps lies before `start`",
        ),
        (
            &["replay", "forged-times.json", "--window", window.as_str()],
            "`times[0]` is 0 ps",
        ),
        (
            &["replay", "forged-start.json", "--window", window.as_str()],
            "lies before `start` 1000000000000000 ps",
        ),
        (
            &[
                "replay",
                "forged-late-clocks.json",
                "--window",
                window.as_str(),
            ],
            "agent 0: `time` 18446744073709550616 ps lies past",
        ),
        (
            &["replay", "forged-late-wq.json", "--window", window.as_str()],
            "`wq[0]` 18446744073709550616 ps lies past",
        ),
        (
            &[
                "replay",
                "forged-late-start.json",
                "--window",
                window.as_str(),
            ],
            "`start` 18446744073709550606 ps lies past",
        ),
        (&["record", "--json", "out.json"], ""),
        (&["--checkpoint-every", "5"], ""),
        (&["replay"], ""),
        (&["serve"], ""),
        (&["serve", "--fleet", "fleet.json", "--threads", "0"], ""),
        // The analytic tier refuses these inside the sweep's cells.
        (
            &[
                "--system",
                "dram-less",
                "--kernel",
                "gemver",
                "--tier",
                "analytic",
                "--faults",
                "plan.json",
            ],
            "invalid system spec",
        ),
        (
            &[
                "--spec", "tlc.json", "--kernel", "trisolv", "--tier", "analytic",
            ],
            "invalid system spec",
        ),
        // A misspelled key in any input file names the key.
        (
            &["--spec", "bad-tlc.json", "--kernel", "trisolv"],
            "schedulr",
        ),
        (
            &["--system", "dram-less", "--faults", "bad-plan.json"],
            "drift_rat",
        ),
        (
            &["serve", "--fleet", "bad-fleet.json", "--requests", "10"],
            "tennants",
        ),
    ] {
        let out = dir.sim(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{line:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{line:?}: {stderr}");
        assert!(
            stderr.contains(needle),
            "{line:?} must name {needle:?}: {stderr}"
        );
    }
}

#[test]
fn run_json_parses_back_as_a_suite_result() {
    let dir = Dir::new("run");
    dir.ok(&[&TINY[..], &["--json", "suite.json"]].concat());
    let suite = SuiteResult::from_json_str(&dir.read("suite.json")).unwrap();
    assert_eq!(suite.outcomes.len(), 1);
}

#[test]
fn trace_out_writes_the_cells_chrome_trace() {
    // `tests/telemetry.rs` checks the trace's shape on this preset; the
    // CLI must write that trace as is.
    let dir = Dir::new("trace");
    dir.ok(&[
        "--system",
        "dram-less",
        "--kernel",
        "gemver",
        "--scale",
        "0.25",
        "--trace-out",
        "trace.json",
    ]);
    let params = SystemParams::default();
    let built = Workload::of(Kernel::Gemver, Scale(0.25)).build(params.agents);
    let (_, events) = simulate_spec_traced(&SystemKind::DramLess.spec(), &built, &params).unwrap();
    assert_eq!(
        dir.read("trace.json"),
        chrome_trace(&events).to_json_pretty()
    );
}

#[test]
fn record_then_window_replay_runs_to_completion() {
    let dir = Dir::new("record");
    dir.ok(&[&["record"][..], &TINY, &["--out", "run.json"]].concat());
    let out = dir.ok(&["replay", "run.json", "--window", "0..1000000000"]);
    assert!(out.contains("ran to completion"), "{out}");
}

#[test]
fn top_hint_pair_replays_the_worst_request() {
    let dir = Dir::new("top");
    let top = dir.ok(&[&["top"][..], &TINY].concat());
    let hint = |verb: &str| {
        let prefix = format!("dramless-sim {verb} ");
        let rest = top.lines().find_map(|l| l.trim().strip_prefix(&prefix));
        format!("{verb} {}", rest.expect("top prints the pair"))
    };
    dir.ok(&hint("record").split_whitespace().collect::<Vec<_>>());
    let out = dir.ok(&hint("replay").split_whitespace().collect::<Vec<_>>());
    assert!(out.contains("resumed at request"), "{out}");
}

#[test]
fn serve_template_feeds_serve() {
    let dir = Dir::new("serve");
    dir.write("fleet.json", &dir.ok(&["serve", "--template"]));
    let out = dir.ok(&["serve", "--fleet", "fleet.json", "--requests", "200"]);
    assert!(out.contains("served 200 request(s)"), "{out}");
}

#[test]
fn reproduce_writes_every_figure_and_the_experiments_claims_table() {
    let dir = Dir::new("reproduce");
    dir.ok(&["reproduce", "--out", "repro"]);
    let mut figures = 0;
    let mut written = Vec::new();
    for entry in std::fs::read_dir(dir.0.join("repro")).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        if path.extension().is_some_and(|e| e == "json") {
            let text = String::from_utf8(bytes.clone()).unwrap();
            Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
            figures += 1;
        }
        let name = path.file_name().unwrap().to_str().unwrap();
        written.push((format!("reproduce/{name}"), fnv1a(&bytes)));
    }
    assert_eq!(figures, 15, "one file per figure and table");
    // Every file's digest must be the manifest's, and every manifest
    // row must be written: list each row that moved, not the first.
    let pinned: Vec<(&str, u64)> = GOLDENS
        .lines()
        .filter(|l| l.starts_with("reproduce/"))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("rows are `name digest`");
            (name, u64::from_str_radix(hex, 16).expect("digests are hex"))
        })
        .collect();
    let mut moved: Vec<String> = written
        .iter()
        .filter(|(name, got)| !pinned.contains(&(name.as_str(), *got)))
        .map(|(name, got)| format!("{name} {got:016x}"))
        .collect();
    moved.extend(
        pinned
            .iter()
            .filter(|(name, _)| !written.iter().any(|(w, _)| w == name))
            .map(|(name, _)| format!("{name} (not written)")),
    );
    moved.sort();
    assert!(
        moved.is_empty(),
        "reproduce output differs from crates/dramless/goldens.txt; moved rows:\n{}",
        moved.join("\n")
    );
    let experiments = include_str!("../EXPERIMENTS.md");
    let (_, rest) = experiments
        .split_once(CLAIMS_BEGIN)
        .expect("EXPERIMENTS.md marks the claims table");
    let (committed, _) = rest.split_once(CLAIMS_END).expect("the mark is closed");
    assert_eq!(
        committed,
        dir.read("repro/claims.md"),
        "EXPERIMENTS.md's claims table differs from `dramless-sim reproduce`'s claims.md"
    );
}
