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
use util::json::ToJson;
use workloads::{Kernel, Scale, Workload};

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

    // A faulted controller restored from an image re-snapshots to the
    // same bytes: the insertion history a restore leaves behind must
    // not reach the image.
    let footprint = small().build_cached(p.agents).character.footprint;
    for c in &rec.checkpoints {
        assert_eq!(c.backend.kind, "pram-ctrl/controller");
        let mut sys = dramless::build_system(&spec, &p, footprint).unwrap();
        sys.backend.restore_state(&c.backend).unwrap();
        let again = sys.backend.snapshot_state().unwrap();
        assert!(
            again.to_json_string() == c.backend.to_json_string(),
            "controller image at request {} changed across restore",
            c.requests
        );
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

/// The checkpoint list `record_cell` produced for DRAM-less gemver at
/// `Scale(1.0)` with a checkpoint every 64 requests, before request-free
/// arbitration slices were fused into request-issuing ones: `(requests,
/// stream digest)` per checkpoint.
const GEMVER_CHECKPOINTS: [(u64, u64); 38] = [
    (0, 0xcbf29ce484222325),
    (64, 0x3843b6fd8f29d653),
    (128, 0x5fbc1d0fc1d88a46),
    (192, 0x80d4114e5de146d9),
    (256, 0x0988309239444288),
    (320, 0x210c4d328803147e),
    (384, 0x1a72c48e22aa25c3),
    (449, 0x57c38f1828892135),
    (513, 0x49473bda6b93991e),
    (577, 0x05bee1c3dbf88df7),
    (642, 0x269b9d05df336b9c),
    (706, 0xad323695b5c326b5),
    (770, 0xf64efb149cde0482),
    (834, 0x8a11adb77da72175),
    (906, 0x49321a3ae0e427e6),
    (970, 0xa6ab11afde70a81e),
    (1034, 0x7cd47754ceb86537),
    (1098, 0xfda61fe295d86bda),
    (1162, 0x55abecd63c2c0e0c),
    (1226, 0xe6ee582bfcfd3e5c),
    (1290, 0x6d820fb5ac10010f),
    (1354, 0x45888a30149748f0),
    (1420, 0x277d54df55607101),
    (1484, 0xf1271a95cd78890c),
    (1548, 0x64195965a611c4c4),
    (1612, 0x4e05cff25809cf5a),
    (1680, 0x956f6e7b85901451),
    (1744, 0xf7a9c4be4dfb263e),
    (1808, 0x57d70e99f9b6183e),
    (1872, 0xf58d1fd786b6035d),
    (1936, 0x3559f07217a5c6aa),
    (2000, 0x49def5a6ddde5611),
    (2064, 0xb0bfa0ef312eae03),
    (2128, 0x2918710cf338a001),
    (2192, 0x3b5f185672ff45ce),
    (2256, 0x79db58b61c4382d5),
    (2320, 0xa2dd86dcf21f89e1),
    (2384, 0xcc5b9fa7d26c45e1),
];

/// One preset's checkpoint golden for gemver at `Scale(1.0)`, default
/// params, a checkpoint every 64 requests.
struct CheckpointGolden {
    kind: SystemKind,
    /// FNV-1a of the rendered `(requests, stream digest)` list.
    checkpoints: u64,
    /// `(requests, stream digest, report fingerprint)` of the cell.
    fingerprint: (u64, u64, u64),
    /// FNV-1a of the rendered cursor images at every checkpoint.
    cursors: u64,
    /// FNV-1a of the rendered backend images at every checkpoint: cell
    /// bytes, buffer contents, RNG positions, written-word sets.
    backends: u64,
}

const CHECKPOINT_GOLDENS: [CheckpointGolden; 3] = [
    CheckpointGolden {
        kind: SystemKind::DramLess,
        checkpoints: 0xc7b3_ac2c_f7b4_6433,
        fingerprint: (2426, 0x37ea_9f2c_e453_a9b9, 0xa4f5_0ee8_0b6f_42b6),
        cursors: 0xf6a4_4306_d06a_e8c2,
        backends: 0x4e46_977f_c2df_cfd9,
    },
    CheckpointGolden {
        kind: SystemKind::PageBuffer,
        checkpoints: 0x2f30_e5a5_90ff_b8e7,
        fingerprint: (2426, 0x5452_acba_2c1a_2d13, 0x5852_5e3b_5382_11cf),
        cursors: 0xb47b_7163_05d1_98ec,
        backends: 0x9b78_a882_772d_0395,
    },
    CheckpointGolden {
        kind: SystemKind::HeteroPram,
        checkpoints: 0x70ae_85f7_6023_adb2,
        fingerprint: (2426, 0xcc1e_538e_9776_9606, 0x78c7_00f8_2243_3356),
        cursors: 0x7334_c5d9_3e6a_f649,
        backends: 0x1caf_a28e_5643_5a08,
    },
];

#[test]
fn checkpoints_land_on_the_golden_request_counts_and_images() {
    let w = Workload::of(Kernel::Gemver, Scale(1.0));
    let digest = |json: util::json::Json| util::fingerprint::fnv1a(json.render(false).as_bytes());
    for golden in &CHECKPOINT_GOLDENS {
        let kind = golden.kind;
        let rec =
            replay::record_cell(SystemId::Preset(kind), &kind.spec(), &w, &params(), 64).unwrap();
        let got: Vec<(u64, u64)> = rec
            .checkpoints
            .iter()
            .map(|c| (c.requests, c.stream))
            .collect();
        if kind == SystemKind::DramLess {
            assert_eq!(got, GEMVER_CHECKPOINTS);
        }
        // Images render their maps in key order, so the digests are
        // stable across processes.
        let cursors: Vec<_> = rec.checkpoints.iter().map(|c| c.exec.clone()).collect();
        let backends: Vec<_> = rec.checkpoints.iter().map(|c| c.backend.clone()).collect();
        let row = (
            digest(got.to_json()),
            (
                rec.fingerprint.requests,
                rec.fingerprint.stream,
                rec.fingerprint.report,
            ),
            digest(cursors.to_json()),
            digest(backends.to_json()),
        );
        let want = (
            golden.checkpoints,
            golden.fingerprint,
            golden.cursors,
            golden.backends,
        );
        assert_eq!(row, want, "{kind}");
        let rep = replay::verify_cell(&rec, &params()).unwrap();
        assert_eq!(rep.verified_checkpoints, got.len() - 1, "{kind}");
    }
}
