//! Record/replay equivalence: recording must not perturb a run, and a
//! checkpoint-resume must be byte-identical to the straight run — for
//! every Table I preset, both fidelity tiers, faults on and off.
//!
//! The divergence direction is pinned too: tampering with a recorded
//! checkpoint must fail the replay loudly instead of letting it run
//! through to a silently different answer.

use dramless::replay::{self, RECORDING_VERSION};
use dramless::system::simulate_spec_as;
use dramless::{
    sweep, FaultPlan, FidelityTier, ReplayError, SystemId, SystemKind, SystemParams, SystemSpec,
};
use util::fingerprint::fnv1a;
use util::json::ToJson;
use workloads::{Kernel, Scale, Workload};

mod goldens;

fn params() -> SystemParams {
    SystemParams::default()
}

fn small() -> Workload {
    Workload::of(Kernel::Gemver, Scale(0.25))
}

fn all_presets() -> Vec<SystemKind> {
    let mut all = SystemKind::EVALUATED.to_vec();
    all.push(SystemKind::Ideal);
    all
}

/// Records one cell and proves the recorded outcome is byte-identical
/// to the straight runner's, then replays it end to end (resume from
/// the request-zero checkpoint, cross-check every recorded checkpoint,
/// final stream digest and report fingerprint).
fn record_and_verify(spec: &SystemSpec, id: SystemId, every: u64) -> replay::CellRecording {
    let p = params();
    let w = small();
    let rec = replay::record_cell(id.clone(), spec, &w, &p, every)
        .unwrap_or_else(|e| panic!("{id}: record failed: {e}"));
    let built = w.build_cached(p.agents);
    let mut straight_spec = spec.clone();
    straight_spec.telemetry = None;
    let straight = simulate_spec_as(id.clone(), &straight_spec, &built, &p)
        .unwrap_or_else(|e| panic!("{id}: straight run failed: {e}"));
    assert_eq!(
        rec.outcome.to_json_string(),
        straight.to_json_string(),
        "{id}: recording perturbed the run"
    );
    let rep = replay::verify_cell(&rec, &p).unwrap_or_else(|e| panic!("{id}: replay failed: {e}"));
    assert!(rep.completed, "{id}: replay did not complete");
    rec
}

#[test]
fn every_preset_records_and_replays_byte_identically() {
    for kind in all_presets() {
        let rec = record_and_verify(&kind.spec(), SystemId::Preset(kind), 50);
        if rec.fingerprint.requests > 0 {
            assert!(
                !rec.checkpoints.is_empty(),
                "{kind}: accurate cells must carry the request-zero checkpoint"
            );
        }
    }
}

#[test]
fn recorded_suite_matches_the_sweep_cell_for_cell() {
    // The same grid through the recorder and through the production
    // sweep engine: outcomes and aggregate metrics must agree byte for
    // byte (record_run reports in the sweep's workload-major order).
    let p = params();
    let w = small();
    let systems: Vec<(SystemId, SystemSpec)> = all_presets()
        .into_iter()
        .map(|k| (SystemId::Preset(k), k.spec()))
        .collect();
    let rec = replay::record_run(&systems, &[w], &p, 500).unwrap();
    let (swept, _) = sweep::sweep_systems_on(util::pool::global(), &systems, &[w], &p).unwrap();
    assert_eq!(rec.cells.len(), swept.outcomes.len());
    for (cell, out) in rec.cells.iter().zip(&swept.outcomes) {
        assert_eq!(
            cell.outcome.to_json_string(),
            out.to_json_string(),
            "{}: recorded cell differs from the swept cell",
            out.system.name()
        );
    }
    let recorded_suite = dramless::SuiteResult {
        outcomes: rec.cells.iter().map(|c| c.outcome.clone()).collect(),
    };
    assert_eq!(
        recorded_suite.aggregate_metrics().to_json_string(),
        swept.aggregate_metrics().to_json_string(),
        "aggregate metrics diverged"
    );
}

#[test]
fn faulted_runs_record_and_resume_mid_cell_byte_identically() {
    // The acceptance case: resuming mid-cell with fault injection armed
    // must land on the exact bytes of the straight faulted run. Fault
    // draws are stateless hashes over per-line counters that live in
    // the controller images, so they replay for free.
    let mut spec = SystemKind::DramLess.spec();
    spec.faults = Some(FaultPlan::seeded(7));
    let rec = record_and_verify(&spec, SystemId::Preset(SystemKind::DramLess), 40);
    assert!(
        rec.outcome.degraded.is_some(),
        "fault ledger missing from the recorded outcome"
    );
    assert!(
        rec.checkpoints.len() >= 3,
        "want mid-run checkpoints, got {}",
        rec.checkpoints.len()
    );
    // Resume from every mid-run checkpoint in turn; each resumed run
    // must complete and re-verify the final report fingerprint (FNV
    // over the full report JSON — byte identity).
    let p = params();
    for c in &rec.checkpoints[1..] {
        let rep = replay::replay_window(&rec, &p, c.requests..u64::MAX)
            .unwrap_or_else(|e| panic!("resume at {}: {e}", c.requests));
        assert_eq!(rep.resumed_at, c.requests);
        assert!(rep.completed, "resume at {} did not complete", c.requests);
    }
}

#[test]
fn recordings_are_byte_reproducible_and_images_re_snapshot_exactly() {
    // Hash-keyed device state (PRAM cell rows, fault ledgers, retire
    // maps) must render in key order: two recordings of one seeded,
    // faulted cell in one process are byte-identical, although every
    // map gets its own hasher keys.
    let mut spec = SystemKind::DramLess.spec();
    spec.faults = Some(FaultPlan::seeded(7));
    let p = params();
    let record = || {
        replay::record_cell(
            SystemId::Preset(SystemKind::DramLess),
            &spec,
            &small(),
            &p,
            40,
        )
        .unwrap()
    };
    let rec = record();
    assert!(
        record().to_json_string() == rec.to_json_string(),
        "two recordings of one seeded cell differ"
    );

    // Every image restores into a freshly built system and re-snapshots
    // to the same bytes: the restore's checks accept what the
    // configuration builds, and the insertion history a restore leaves
    // behind must not reach the image.
    let footprint = small().build_cached(p.agents).character.footprint;
    let re_snapshots = |spec: &SystemSpec, rec: &replay::CellRecording, label: &str| {
        assert!(!rec.checkpoints.is_empty(), "{label}: no checkpoint");
        for c in &rec.checkpoints {
            let mut sys = dramless::build_system(spec, &p, footprint).unwrap();
            sys.backend
                .restore_state(&c.backend)
                .unwrap_or_else(|e| panic!("{label} at request {}: {e}", c.requests));
            let again = sys.backend.snapshot_state().unwrap();
            assert!(
                again.to_json_string() == c.backend.to_json_string(),
                "{label}: image at request {} changed across restore",
                c.requests
            );
        }
    };
    assert_eq!(rec.checkpoints[0].backend.kind, "pram-ctrl/controller");
    re_snapshots(&spec, &rec, "faulted DRAM-less");
    // The same for every preset's backend, at every checkpoint, with
    // and without a fault plan (the flash SSD's fault state is checked
    // against the plan it was built with).
    for kind in all_presets() {
        for faults in [None, Some(FaultPlan::seeded(7))] {
            let label = format!("{kind}, faults {}", faults.is_some());
            let spec = SystemSpec {
                faults,
                ..kind.spec()
            };
            let rec = replay::record_cell(SystemId::Preset(kind), &spec, &small(), &p, 40).unwrap();
            re_snapshots(&spec, &rec, &label);
        }
    }
}

#[test]
fn window_replay_reproduces_recorded_fingerprints_and_rejects_tampering() {
    let mut spec = SystemKind::DramLess.spec();
    spec.faults = Some(FaultPlan::seeded(11));
    let p = params();
    let w = small();
    let rec =
        replay::record_cell(SystemId::Preset(SystemKind::DramLess), &spec, &w, &p, 40).unwrap();
    assert!(rec.checkpoints.len() >= 3);
    // A bounded window crosses and re-verifies the checkpoints inside it.
    let a = rec.checkpoints[1].requests;
    let b = rec.checkpoints[2].requests;
    let rep = replay::replay_window(&rec, &p, a..(b + 1)).unwrap();
    assert_eq!(rep.resumed_at, a);
    assert!(rep.verified_checkpoints >= 1);
    // Tampered stream digest: caught immediately at restore.
    let mut bad = rec.clone();
    bad.checkpoints[1].stream ^= 0xdead_beef;
    assert!(matches!(
        replay::replay_window(&bad, &p, a..u64::MAX),
        Err(ReplayError::Divergence { .. })
    ));
    // Tampered backend image (stale state under a valid envelope):
    // caught at the next crossed fingerprint, never run through.
    let mut bad = rec.clone();
    bad.checkpoints[1].backend = bad.checkpoints[0].backend.clone();
    let err = replay::replay_window(&bad, &p, a..u64::MAX).unwrap_err();
    assert!(
        matches!(
            err,
            ReplayError::Divergence { .. } | ReplayError::ReportMismatch { .. }
        ),
        "tampering slipped through: {err}"
    );
}

#[test]
fn checkpoints_land_on_the_first_request_batch_past_each_target() {
    // At cadence 1 the recorder images the backend at every call
    // boundary, one per request batch. At cadence 64 each checkpoint
    // must sit on the first of those boundaries at or past its target.
    let p = params();
    let w = small();
    let id = SystemId::Preset(SystemKind::DramLess);
    let spec = SystemKind::DramLess.spec();
    let every_boundary = replay::record_cell(id.clone(), &spec, &w, &p, 1).unwrap();
    let boundaries: Vec<u64> = every_boundary
        .checkpoints
        .iter()
        .map(|c| c.requests)
        .collect();
    let rec = replay::record_cell(id, &spec, &w, &p, 64).unwrap();
    let counts: Vec<u64> = rec.checkpoints.iter().map(|c| c.requests).collect();
    assert_eq!(counts[0], 0);
    assert!(
        counts.len() >= 3,
        "want mid-run checkpoints, got {counts:?}"
    );
    for pair in counts.windows(2) {
        let first = boundaries.iter().find(|&&b| b >= pair[0] + 64);
        assert_eq!(Some(&pair[1]), first, "{counts:?}");
    }
    let last = counts[counts.len() - 1];
    assert!(
        boundaries.iter().all(|&b| b < last + 64),
        "a boundary past the last target went unimaged: {counts:?}"
    );

    // Thinning the list keeps every count a boundary, so the recording
    // still verifies and resumes from each checkpoint left. Recordings
    // whose checkpoints sit on fewer boundaries replay the same way.
    let mut thinned = rec.clone();
    thinned.checkpoints = rec
        .checkpoints
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, c)| c.clone())
        .collect();
    assert!(thinned.checkpoints.len() >= 2);
    let rep = replay::verify_cell(&thinned, &p).unwrap();
    assert!(rep.completed);
    assert_eq!(rep.verified_checkpoints, thinned.checkpoints.len() - 1);
    for c in &thinned.checkpoints {
        let rep = replay::replay_window(&thinned, &p, c.requests..u64::MAX)
            .unwrap_or_else(|e| panic!("resume at {}: {e}", c.requests));
        assert_eq!(rep.resumed_at, c.requests);
        assert!(rep.completed, "resume at {} did not complete", c.requests);
    }
}

#[test]
fn recordings_round_trip_through_json_files() {
    let rec = replay::record_run(
        &[(
            SystemId::Preset(SystemKind::DramLess),
            SystemKind::DramLess.spec(),
        )],
        &[small()],
        &params(),
        60,
    )
    .unwrap();
    assert_eq!(rec.version, RECORDING_VERSION);
    let text = rec.to_json_string();
    let back = <replay::Recording as util::json::FromJson>::from_json_str(&text).unwrap();
    assert_eq!(back.to_json_string(), text, "recording JSON is not stable");
    let reports = replay::verify(&back).unwrap();
    assert!(reports.iter().all(|r| r.completed));
}

#[test]
fn prop_checkpoint_restore_resume_equals_straight_run() {
    // The full knob matrix on the real controller — both fidelity
    // tiers, faults on and off — with a seeded-random checkpoint
    // cadence and resume point per case.
    let p = params();
    let w = small();
    util::for_each_case!(4, |rng| {
        for tier in [FidelityTier::Accurate, FidelityTier::Analytic] {
            for faulted in [false, true] {
                if faulted && tier == FidelityTier::Analytic {
                    // The analytic tier rejects fault plans by design.
                    continue;
                }
                let mut spec = SystemKind::DramLess.spec();
                spec.tier = tier;
                if faulted {
                    spec.faults = Some(FaultPlan::seeded(rng.range_u64(1, 1 << 20)));
                }
                let every = rng.range_u64(20, 120);
                let id = SystemId::Preset(SystemKind::DramLess);
                let rec = replay::record_cell(id.clone(), &spec, &w, &p, every).unwrap();
                let built = w.build_cached(p.agents);
                let straight = simulate_spec_as(id, &spec, &built, &p).unwrap();
                assert_eq!(
                    rec.fingerprint.report,
                    replay::report_fingerprint(&straight),
                    "tier {tier:?} faulted {faulted}: recording perturbed the run"
                );
                match tier {
                    FidelityTier::Accurate => {
                        // Resume from a random checkpoint and run to the
                        // end: the replay layer itself asserts stream and
                        // report byte-identity, diverging loudly otherwise.
                        let i = rng.range_u64(0, rec.checkpoints.len() as u64 - 1) as usize;
                        let start = rec.checkpoints[i].requests.max(1);
                        let rep = replay::replay_window(&rec, &p, start..u64::MAX).unwrap();
                        assert!(rep.completed);
                    }
                    FidelityTier::Analytic => {
                        let rep = replay::verify_cell(&rec, &p).unwrap();
                        assert!(rep.completed);
                    }
                }
            }
        }
    });
}

#[test]
fn malformed_recording_params_fail_typed_instead_of_panicking() {
    // Zero agents used to panic in the trace recorder and a zero bucket
    // width in `TimeSeries`; both must now surface as typed spec errors
    // from the library and a plain exit 1 from the CLI.
    let rec = replay::record_run(
        &[(
            SystemId::Preset(SystemKind::DramLess),
            SystemKind::DramLess.spec(),
        )],
        &[small()],
        &params(),
        60,
    )
    .unwrap();
    let breakages = [
        (
            "agents",
            SystemParams {
                agents: 0,
                ..params()
            },
        ),
        (
            "sample_bucket_us",
            SystemParams {
                sample_bucket_us: 0,
                ..params()
            },
        ),
    ];
    for (knob, bad_params) in breakages {
        let mut bad = rec.clone();
        bad.params = bad_params;
        let text = bad.to_json_string();
        let back = <replay::Recording as util::json::FromJson>::from_json_str(&text).unwrap();
        for result in [
            replay::verify(&back).map(|_| ()),
            replay::replay(&back, 0, 0..1).map(|_| ()),
        ] {
            match result {
                Err(ReplayError::Spec(e)) => assert!(e.message().contains(knob), "{knob}: {e}"),
                other => panic!("{knob}: expected a spec error, got {other:?}"),
            }
        }
        let path =
            std::env::temp_dir().join(format!("dramless-bad-{knob}-{}.json", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dramless-sim"))
            .arg("replay")
            .arg(&path)
            .output()
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{knob}: {stderr}");
        assert!(stderr.contains(knob), "{knob}: {stderr}");
    }
}

/// The presets whose recordings the manifest pins (rows
/// `replay_equivalence/<preset>/*`): gemver at `Scale(1.0)`, default
/// params, a checkpoint every 64 requests.
const CHECKPOINT_GOLDENS: [SystemKind; 3] = [
    SystemKind::DramLess,
    SystemKind::PageBuffer,
    SystemKind::HeteroPram,
];

#[test]
fn checkpoints_land_on_the_golden_request_counts_and_images() {
    let w = Workload::of(Kernel::Gemver, Scale(1.0));
    let digest = |json: util::json::Json| goldens::hex(fnv1a(json.render(false).as_bytes()));
    let mut rows = Vec::new();
    for kind in CHECKPOINT_GOLDENS {
        let rec =
            replay::record_cell(SystemId::Preset(kind), &kind.spec(), &w, &params(), 64).unwrap();
        let got: Vec<(u64, u64)> = rec
            .checkpoints
            .iter()
            .map(|c| (c.requests, c.stream))
            .collect();
        let row =
            |field: &str, value: String| (format!("replay_equivalence/{kind:?}/{field}"), value);
        if kind == SystemKind::DramLess {
            // The list itself: the first request batch at or past each
            // 64-request target.
            rows.extend(got.iter().map(|&(requests, stream)| {
                row(&format!("stream@{requests}"), goldens::hex(stream))
            }));
        }
        // Images render their maps in key order, so the digests are
        // stable across processes.
        let backends: Vec<_> = rec.checkpoints.iter().map(|c| c.backend.clone()).collect();
        let fp = &rec.fingerprint;
        rows.extend([
            row("checkpoints", digest(got.to_json())),
            row(
                "fingerprint",
                format!(
                    "{} {} {}",
                    fp.requests,
                    goldens::hex(fp.stream),
                    goldens::hex(fp.report)
                ),
            ),
            row("tape", digest(rec.tape.to_json())),
            row("backends", digest(backends.to_json())),
        ]);
        let rep = replay::verify_cell(&rec, &params()).unwrap();
        assert_eq!(rep.verified_checkpoints, got.len() - 1, "{kind}");
    }
    goldens::check("replay_equivalence/", &rows);
}
