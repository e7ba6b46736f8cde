//! The `dramless-sim` binary end to end. Malformed command lines exit 1
//! with an `error:` line, never a panic's 101; each subcommand's happy
//! path runs on a tiny cell.

use dramless::paper::{CLAIMS_BEGIN, CLAIMS_END};
use dramless::{
    replay, simulate_spec_traced, ArrivalProcess, FaultPlan, FleetSpec, ReplayError, SuiteResult,
    SystemId, SystemKind, SystemParams, SystemSpec,
};
use std::path::PathBuf;
use std::process::{Command, Output};
use util::fingerprint::fnv1a;
use util::json::{FromJson, Json, ToJson};
use util::telemetry::chrome_trace;
use workloads::{Kernel, Scale, Workload};

mod goldens;

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

/// An edit that puts `v` at `path` inside a recording's first cell.
fn set(path: &[&str], v: Json) -> impl Fn(&mut Json) {
    let path: Vec<String> = ["cells", "0"]
        .iter()
        .chain(path)
        .map(|key| key.to_string())
        .collect();
    move |r| {
        let keys: Vec<&str> = path.iter().map(String::as_str).collect();
        *at(r, &keys) = v.clone();
    }
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
    // Arrivals so sparse that the first one falls past 2^62 ps.
    let sparse = FleetSpec {
        arrivals: ArrivalProcess::Poisson { rate_per_s: 1e-300 },
        ..FleetSpec::example()
    };
    dir.write("sparse-arrivals.json", &sparse.to_json_pretty());
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
    // A recording whose own inputs were forged: a tape one entry short,
    // offsets summing past 2^62 ps or a negative one, checkpoint counts
    // out of order, not starting at 0, past the run's count or inside
    // one request batch, a backend clock near 2^64 in checkpoint 1's
    // image, one completion 1 ps late, or 10^12 agents.
    let w = Workload::of(Kernel::Gemver, Scale(0.25));
    let every = 64;
    let rec = replay::record_run(&systems, &[w], &SystemParams::default(), every).unwrap();
    let counts: Vec<u64> = rec.cells[0]
        .checkpoints
        .iter()
        .map(|c| c.requests)
        .collect();
    let c1 = counts[1];
    let window = format!("{c1}..{}", c1 + 36);
    // A checkpoint taken past its cadence target follows a batch of
    // several requests, so its count less one is no boundary.
    let passed = (1..counts.len())
        .find(|&i| counts[i] > counts[i - 1] + every)
        .expect("some batch holds several requests");
    let late_request = c1 + 5;
    // Writes `file`: the recording's JSON changed by `edit`.
    let forge = |file: &str, edit: &dyn Fn(&mut Json)| {
        let mut forged = rec.to_json();
        edit(&mut forged);
        dir.write(file, &forged.render(false));
    };
    let ceiling = 1u64 << 62;
    forge("forged-short-tape.json", &|r| {
        let Json::Arr(tape) = at(r, &["cells", "0", "tape"]) else {
            panic!("the tape is a list")
        };
        tape.pop();
    });
    forge("forged-tape-sum.json", &|r| {
        set(&["tape", "0"], ceiling.to_json())(r);
        set(&["tape", "1"], ceiling.to_json())(r);
    });
    forge(
        "forged-negative-offset.json",
        &set(&["tape", "3"], Json::I64(-5)),
    );
    forge("forged-order.json", &|r| {
        set(&["checkpoints", "1", "requests"], counts[2].to_json())(r);
        set(&["checkpoints", "2", "requests"], counts[1].to_json())(r);
    });
    forge(
        "forged-first.json",
        &set(&["checkpoints", "0", "requests"], 5u64.to_json()),
    );
    forge(
        "forged-past-end.json",
        &set(
            &["checkpoints", "1", "requests"],
            1_000_000_000_000u64.to_json(),
        ),
    );
    let passed_field = passed.to_string();
    forge(
        "forged-passed-over.json",
        &set(
            &["checkpoints", &passed_field, "requests"],
            (counts[passed] - 1).to_json(),
        ),
    );
    forge(
        "forged-late-program-buffer.json",
        &set(
            &[
                "checkpoints",
                "1",
                "backend",
                "data",
                "program_buffer_free",
                "0",
                "0",
            ],
            (u64::MAX - 999).to_json(),
        ),
    );
    let late_index = late_request.to_string();
    let late = rec.cells[0].tape[late_request as usize].as_ps() + 1;
    forge(
        "forged-completion.json",
        &set(&["tape", &late_index], late.to_json()),
    );
    forge("forged-agents.json", &|r| {
        *at(r, &["params", "agents"]) = 1_000_000_000_000u64.to_json()
    });
    // The same run in version 1's layout: no tape, and a cursor image,
    // `exec`, in every checkpoint.
    forge("version-1.json", &|r| {
        *at(r, &["version"]) = 1u64.to_json();
        let Json::Obj(cell) = at(r, &["cells", "0"]) else {
            panic!("a cell is an object")
        };
        cell.retain(|(key, _)| key != "tape");
        let Json::Arr(checkpoints) = at(r, &["cells", "0", "checkpoints"]) else {
            panic!("the checkpoints are a list")
        };
        for c in checkpoints {
            let Json::Obj(pairs) = c else {
                panic!("a checkpoint is an object")
            };
            pairs.insert(2, ("exec".into(), Json::Obj(Vec::new())));
        }
    });
    let agents = FleetSpec {
        agents: 1_000_000_000_000,
        ..FleetSpec::example()
    };
    dir.write("agents-fleet.json", &agents.to_json_pretty());
    let passed_needle = format!(
        "lands at request {}, never on `checkpoints[{passed}].requests` {}",
        counts[passed],
        counts[passed] - 1
    );
    let late_needle = format!("diverged at request {late_request}: the tape completes it");
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

    // Backend images whose shape no configuration builds, forged in
    // checkpoint 1 of a DRAM-less recording and of a PAGE-buffer one
    // (where the controller sits under the page cache): the restore
    // must refuse each one and name its field before a window replay
    // indexes the state.
    let page_buffer = [(
        SystemId::Preset(SystemKind::PageBuffer),
        SystemKind::PageBuffer.spec(),
    )];
    let pb = replay::record_run(&page_buffer, &[w], &SystemParams::default(), every).unwrap();
    let mut shape_rows: Vec<(String, String, String)> = Vec::new();
    for (system, rec, ctrl) in [
        ("dl", &rec, &["data"][..]),
        ("pb", &pb, &["data", "store", "data", "inner", "data"]),
    ] {
        let c1 = rec.cells[0].checkpoints[1].requests;
        let window = format!("{c1}..{}", rec.cells[0].fingerprint.requests);
        let image = |path: &[&str]| -> Vec<String> {
            ["cells", "0", "checkpoints", "1", "backend"]
                .iter()
                .chain(ctrl)
                .chain(path)
                .map(|key| key.to_string())
                .collect()
        };
        // Each forgery drops the last entry of a list, or zeroes a
        // number, at a path inside the controller image.
        let module = ["channels", "0", "modules", "0"];
        let forgeries: [(&str, &str, Vec<&str>, bool); 5] = [
            (
                "module-short",
                "channels[0].modules holds 15 modules",
                vec!["channels", "0", "modules"],
                true,
            ),
            (
                "program-windows",
                "channels[0].modules[0].program_windows",
                [&module[..], &["program_windows"]].concat(),
                true,
            ),
            (
                "word-bytes",
                "channels[0].modules[0].geometry.word_bytes is 0",
                [&module[..], &["geometry", "word_bytes"]].concat(),
                false,
            ),
            (
                "lanes",
                "channels[0].modules[0].partitions.lanes",
                [&module[..], &["partitions", "lanes"]].concat(),
                true,
            ),
            (
                "program-buffer-free",
                "program_buffer_free[0] holds 15 modules",
                vec!["program_buffer_free", "0"],
                true,
            ),
        ];
        for (name, needle, path, pop) in forgeries {
            let mut forged = rec.to_json();
            let keys = image(&path);
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            let target = at(&mut forged, &keys);
            if pop {
                let Json::Arr(items) = target else {
                    panic!("{keys:?} is a list")
                };
                items.pop();
            } else {
                *target = 0u64.to_json();
            }
            let file = format!("{system}-{name}.json");
            dir.write(&file, &forged.render(false));
            shape_rows.push((file, window.clone(), needle.to_string()));
        }
    }
    // Counters near 2^64 in checkpoint 1 of a faulted DRAM-less
    // recording. The request path adds to each one without checking, so
    // the restore must hold them to 2^62, and a line's errors below the
    // plan's budget (3), naming the field.
    let faulted = [(
        SystemId::Preset(SystemKind::DramLess),
        SystemSpec {
            faults: Some(FaultPlan::from_json_str(plan).unwrap()),
            ..SystemKind::DramLess.spec()
        },
    )];
    let fr = replay::record_run(&faulted, &[w], &SystemParams::default(), every).unwrap();
    let faulted_window = format!(
        "{}..{}",
        fr.cells[0].checkpoints[1].requests, fr.cells[0].fingerprint.requests
    );
    let near = (u64::MAX).to_json();
    let line = ["faults", "lines", "0", "0", "0", "1"];
    let counters: [(&str, Vec<&str>, &Json, &str); 7] = [
        (
            "words-read",
            vec!["stats", "words_read"],
            &near,
            "stats.words_read is 18446744073709551615",
        ),
        (
            "line-reads",
            [&line[..], &["reads"]].concat(),
            &near,
            "faults.lines[0][0] line 0 reads is",
        ),
        (
            "line-reads-since-write",
            [&line[..], &["reads_since_write"]].concat(),
            &near,
            "faults.lines[0][0] line 0 reads_since_write is",
        ),
        (
            "line-writes",
            [&line[..], &["writes"]].concat(),
            &near,
            "faults.lines[0][0] line 0 writes is",
        ),
        (
            "line-errors",
            [&line[..], &["errors"]].concat(),
            &3u64.to_json(),
            "faults.lines[0][0] line 0 errors is 3, at or past the plan's line_error_budget 3",
        ),
        (
            "fault-counters",
            vec!["faults", "counters", "injected"],
            &near,
            "faults.counters.injected is",
        ),
        (
            "module-stats",
            vec!["channels", "0", "modules", "0", "stats", "read_bursts"],
            &near,
            "channels[0].modules[0].stats.read_bursts is",
        ),
    ];
    for (name, path, value, needle) in counters {
        let mut forged = fr.to_json();
        let keys: Vec<&str> = ["cells", "0", "checkpoints", "1", "backend", "data"]
            .into_iter()
            .chain(path)
            .collect();
        *at(&mut forged, &keys) = value.clone();
        let file = format!("counter-{name}.json");
        dir.write(&file, &forged.render(false));
        shape_rows.push((file, faulted_window.clone(), needle.to_string()));
    }

    // Images of the other backends, forged in one field of one
    // checkpoint: a lane list cut to one lane, a configuration field
    // set to 0 or a counter near 2^64. Each restore holds its
    // configuration, lane counts and counters to what the preset builds.
    // So does the DRAM-less controller's cell array, whose per-word
    // program counts (a `u32`) are held to 2^31.
    // `None` cuts the list at the path to one lane; `Some` sets the
    // value there.
    let ssd = ["store", "data", "ssd", "data"];
    let backends = [
        (
            SystemKind::HeteroPram,
            "hp-lanes",
            0,
            [&ssd[..], &["lanes", "lanes"]].concat(),
            None,
            "storage/pram-ssd\" shape mismatch: lanes.lanes holds 1 lanes",
        ),
        (
            SystemKind::HeteroPram,
            "hp-params-lanes",
            0,
            [&ssd[..], &["params", "lanes"]].concat(),
            Some(0u64.to_json()),
            "params.lanes is 0, the configuration has 16",
        ),
        (
            SystemKind::NorIntf,
            "nor-chips",
            1,
            vec!["chips", "lanes"],
            None,
            "chips.lanes holds 1 lanes",
        ),
        (
            SystemKind::PageBuffer,
            "pb-clock",
            0,
            vec!["clock"],
            Some(u64::MAX.to_json()),
            "storage/cache\" shape mismatch: clock is 18446744073709551615",
        ),
        (
            SystemKind::PageBuffer,
            "pb-hits",
            0,
            vec!["stats", "hits"],
            Some(u64::MAX.to_json()),
            "stats.hits is 18446744073709551615",
        ),
        (
            SystemKind::IntegratedSlc,
            "slc-dies",
            0,
            vec!["store", "data", "dies", "lanes"],
            None,
            "flash/device\" shape mismatch: dies.lanes holds 1 lanes",
        ),
        (
            SystemKind::Hetero,
            "hetero-contexts",
            0,
            [&ssd[..], &["contexts", "lanes"]].concat(),
            None,
            "storage/ssd\" shape mismatch: contexts.lanes holds 1 lanes",
        ),
    ];
    for (kind, name, checkpoint, path, edit, needle) in backends {
        let systems = [(SystemId::Preset(kind), kind.spec())];
        let rec = replay::record_run(&systems, &[w], &SystemParams::default(), every).unwrap();
        let cell = &rec.cells[0];
        let window = format!(
            "{}..{}",
            cell.checkpoints[checkpoint].requests, cell.fingerprint.requests
        );
        let mut forged = rec.to_json();
        let checkpoint = checkpoint.to_string();
        let keys: Vec<&str> = ["cells", "0", "checkpoints", &checkpoint, "backend", "data"]
            .into_iter()
            .chain(path)
            .collect();
        let target = at(&mut forged, &keys);
        match edit {
            Some(value) => *target = value,
            None => {
                let Json::Arr(lanes) = target else {
                    panic!("{keys:?} is a list")
                };
                lanes.truncate(1);
            }
        }
        let file = format!("backend-{name}.json");
        dir.write(&file, &forged.render(false));
        shape_rows.push((file, window, needle.to_string()));
    }
    let mut worn = rec.to_json();
    let Json::Arr(channels) = at(
        &mut worn,
        &[
            "cells",
            "0",
            "checkpoints",
            "1",
            "backend",
            "data",
            "channels",
        ],
    ) else {
        panic!("the channels are a list")
    };
    for channel in channels {
        let Json::Arr(modules) = at(channel, &["modules"]) else {
            panic!("the modules are a list")
        };
        for module in modules {
            let Json::Arr(rows) = at(module, &["cells", "rows"]) else {
                panic!("the rows are a list")
            };
            for row in rows {
                *at(row, &["1", "programs"]) = u32::MAX.to_json();
            }
        }
    }
    dir.write("word-programs.json", &worn.render(false));
    shape_rows.push((
        "word-programs.json".into(),
        format!(
            "{}..{}",
            rec.cells[0].checkpoints[1].requests, rec.cells[0].fingerprint.requests
        ),
        "programs is 4294967295, past the 2^31 word-program ceiling".into(),
    ));

    // Each row: a command line and a phrase its error line must carry.
    let refuse = |line: &[&str], needle: &str| {
        let out = dir.sim(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{line:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{line:?}: {stderr}");
        assert!(
            stderr.contains(needle),
            "{line:?} must name {needle:?}: {stderr}"
        );
    };
    for (file, window, needle) in &shape_rows {
        refuse(&["replay", file, "--window", window], needle);
    }
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
        (&["replay", "forged-short-tape.json"], "`tape` holds"),
        (
            &["replay", "forged-tape-sum.json"],
            "`tape` offsets sum past",
        ),
        (&["replay", "forged-negative-offset.json"], "tape: [3]"),
        (
            &["replay", "forged-order.json"],
            "`checkpoints[2].requests`",
        ),
        (
            &["replay", "forged-first.json"],
            "`checkpoints[0].requests` is 5",
        ),
        (
            &["replay", "forged-past-end.json"],
            "`checkpoints[1].requests` is 1000000000000, past",
        ),
        (&["replay", "forged-passed-over.json"], &passed_needle),
        (
            &[
                "replay",
                "forged-late-program-buffer.json",
                "--window",
                window.as_str(),
            ],
            "program_buffer_free",
        ),
        (&["replay", "forged-completion.json"], &late_needle),
        (
            &[
                "replay",
                "forged-completion.json",
                "--window",
                window.as_str(),
            ],
            &late_needle,
        ),
        (&["replay", "forged-agents.json"], "params.agents"),
        (
            &["replay", "version-1.json"],
            "recording version v1 is not the v2 this build reads",
        ),
        (
            &["serve", "--fleet", "agents-fleet.json", "--requests", "10"],
            "invalid fleet spec: agents",
        ),
        (
            &[
                "serve",
                "--fleet",
                "sparse-arrivals.json",
                "--requests",
                "10",
            ],
            "invalid fleet spec: the arrival clock passes the 2^62 ps ceiling",
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
        refuse(line, needle);
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
        written.push((format!("reproduce/{name}"), goldens::hex(fnv1a(&bytes))));
    }
    assert_eq!(figures, 15, "one file per figure and table");
    // Every file's digest must be the manifest's, and every manifest
    // row must be written.
    goldens::check("reproduce/", &written);
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
