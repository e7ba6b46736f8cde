//! Golden equivalence: the declarative spec layer reproduces every
//! Table I preset bit-for-bit, specs round-trip through JSON, and the
//! scheduler-ablation entry point shares the same runner.

use dramless::system::{simulate_built, simulate_spec_as};
use dramless::{
    simulate_dramless_scheduler, Buffer, SystemId, SystemKind, SystemParams, SystemSpec,
    TelemetrySpec,
};
use pram_ctrl::SchedulerKind;
use util::fingerprint::fnv1a;
use util::json::{FromJson, ToJson};
use workloads::{Kernel, Scale, Workload};

mod goldens;

fn params() -> SystemParams {
    SystemParams::default()
}

fn all_kinds() -> Vec<SystemKind> {
    let mut all = SystemKind::EVALUATED.to_vec();
    all.push(SystemKind::Ideal);
    all
}

#[test]
fn all_presets_byte_identical_through_the_spec_runner() {
    // `simulate_built` routes through SystemKind::spec(); running the
    // same spec explicitly under the preset identity must serialize to
    // byte-identical RunOutcome JSON — i.e. the spec carries everything
    // the hand-wired builder used to know.
    let w = Workload::of(Kernel::Gemver, Scale(0.25));
    let built = w.build(params().agents);
    for kind in all_kinds() {
        let direct = simulate_built(kind, &built, &params());
        let via_spec = simulate_spec_as(SystemId::Preset(kind), &kind.spec(), &built, &params())
            .expect("preset composes");
        assert_eq!(
            direct.to_json_pretty(),
            via_spec.to_json_pretty(),
            "{kind}: spec runner diverged from preset runner"
        );
    }
}

#[test]
fn preset_specs_round_trip_through_json() {
    for kind in all_kinds() {
        let spec = kind.spec();
        let parsed = SystemSpec::from_json_str(&spec.to_json_pretty()).unwrap();
        assert_eq!(parsed, spec, "{kind}");
        // And the re-parsed spec still runs identically.
        let w = Workload::of(Kernel::Trisolv, Scale(0.1));
        let built = w.build(2);
        let p = SystemParams {
            agents: 2,
            ..Default::default()
        };
        let a = simulate_spec_as(SystemId::Preset(kind), &spec, &built, &p).unwrap();
        let b = simulate_spec_as(SystemId::Preset(kind), &parsed, &built, &p).unwrap();
        assert_eq!(a.to_json_pretty(), b.to_json_pretty(), "{kind}");
    }
}

#[test]
fn scheduler_ablation_shares_the_preset_runner() {
    // Fig. 13's Final point *is* the DRAM-less preset: one runner, not
    // two near-duplicates.
    let w = Workload::of(Kernel::Trisolv, Scale(0.25));
    let built = w.build(params().agents);
    let ablation = simulate_dramless_scheduler(SchedulerKind::Final, &built, &params());
    let preset = simulate_built(SystemKind::DramLess, &built, &params());
    assert_eq!(ablation.to_json_pretty(), preset.to_json_pretty());
}

#[test]
fn staging_follows_the_spec_datapath_regression() {
    // Regression for the phase-2/4 bug: initial staging used to be
    // host-mediated for *every* heterogeneous system; Heterodirect must
    // stage-in strictly faster than Hetero now that bulk staging
    // follows the spec's datapath.
    let w = Workload::of(Kernel::Gemver, Scale(0.8));
    let built = w.build(params().agents);
    let h = simulate_built(SystemKind::Hetero, &built, &params());
    let hd = simulate_built(SystemKind::Heterodirect, &built, &params());
    assert!(
        hd.breakdown.staging_in < h.breakdown.staging_in,
        "Heterodirect stage-in {} !< Hetero stage-in {}",
        hd.breakdown.staging_in,
        h.breakdown.staging_in
    );
    let hp = simulate_built(SystemKind::HeteroPram, &built, &params());
    let hdp = simulate_built(SystemKind::HeterodirectPram, &built, &params());
    assert!(hdp.breakdown.staging_in < hp.breakdown.staging_in);
}

#[test]
fn malformed_specs_degrade_gracefully() {
    // A spec the composition rules reject is a typed error end to end —
    // no unreachable!(), no panicking sweep worker.
    let bad = SystemSpec {
        buffer: Buffer::None,
        ..SystemKind::Hetero.spec()
    };
    let w = Workload::of(Kernel::Trisolv, Scale(0.1));
    let built = w.build(2);
    let p = SystemParams {
        agents: 2,
        ..Default::default()
    };
    let err = dramless::simulate_spec_built(&bad, &built, &p).unwrap_err();
    assert!(!err.message().is_empty());
    assert!(dramless::build_system(&bad, &p, 1 << 20).is_err());
    assert!(dramless::sweep_specs(&[bad], &[w], &p).is_err());
}

#[test]
fn telemetry_changes_nothing_but_the_metrics_key() {
    // Observation must not perturb the simulation: a telemetry-on run
    // differs from the telemetry-off run of the same cell *only* by the
    // appended `metrics` key. Checked on a load/store, a staged and a
    // page-interface design so every probe site is covered.
    let w = Workload::of(Kernel::Trisolv, Scale(0.25));
    let built = w.build(params().agents);
    for kind in [
        SystemKind::DramLess,
        SystemKind::Hetero,
        SystemKind::IntegratedMlc,
    ] {
        let off = simulate_spec_as(SystemId::Preset(kind), &kind.spec(), &built, &params())
            .expect("preset composes");
        let off_json = off.to_json_pretty();
        assert!(
            !off_json.contains("\"metrics\""),
            "{kind}: metrics key present with telemetry off"
        );
        assert!(
            !off_json.contains("\"degraded\""),
            "{kind}: degraded key present with faults off"
        );

        let spec_on = SystemSpec {
            telemetry: Some(TelemetrySpec::default()),
            ..kind.spec()
        };
        let mut on = simulate_spec_as(SystemId::Preset(kind), &spec_on, &built, &params())
            .expect("preset composes with telemetry");
        assert!(!on.metrics.is_empty(), "{kind}: telemetry on, no metrics");
        assert!(on.to_json_pretty().contains("\"metrics\""));
        on.metrics = util::telemetry::MetricSet::new();
        assert_eq!(
            on.to_json_pretty(),
            off_json,
            "{kind}: probes perturbed the simulation"
        );
    }
}

#[test]
fn attribution_changes_nothing_but_its_own_key() {
    // Latency attribution is pure observation: an attributed run must
    // differ from the plain run of the same cell only by the telemetry
    // it adds (`metrics` + `latency_attribution`). Checked on a
    // load/store, a staged and a page-interface design so every
    // accumulation site is covered.
    let w = Workload::of(Kernel::Trisolv, Scale(0.25));
    let built = w.build(params().agents);
    for kind in [
        SystemKind::DramLess,
        SystemKind::Hetero,
        SystemKind::IntegratedMlc,
    ] {
        // The spec key is opt-in: preset specs must not grow an
        // `attribution` key, and attribution-off reports must not grow
        // a `latency_attribution` key.
        assert!(
            !kind.spec().to_json_pretty().contains("\"attribution\""),
            "{kind}: preset spec grew an attribution key"
        );
        let off = simulate_spec_as(SystemId::Preset(kind), &kind.spec(), &built, &params())
            .expect("preset composes");
        let off_json = off.to_json_pretty();
        assert!(
            !off_json.contains("\"latency_attribution\""),
            "{kind}: latency_attribution key present with attribution off"
        );

        let spec_on = SystemSpec {
            telemetry: Some(TelemetrySpec {
                attribution: true,
                ..Default::default()
            }),
            ..kind.spec()
        };
        let mut on = simulate_spec_as(SystemId::Preset(kind), &spec_on, &built, &params())
            .expect("preset composes with attribution");
        let a = on.attr.as_ref().expect("attribution summary present");
        assert!(a.records > 0, "{kind}: no attributed requests");
        assert!(
            a.conserves(),
            "{kind}: attribution does not conserve ({} violations, {} of {} ps)",
            a.violations,
            a.attributed_ps,
            a.wall_ps
        );
        assert!(on.to_json_pretty().contains("\"latency_attribution\""));
        // Strip what attribution added; the rest must be byte-identical.
        on.attr = None;
        on.metrics = util::telemetry::MetricSet::new();
        assert_eq!(
            on.to_json_pretty(),
            off_json,
            "{kind}: attribution perturbed the simulation"
        );
    }
}

#[test]
fn fault_free_presets_serialize_without_fault_keys() {
    // Schema pin for the fault knob: every preset's spec JSON still has
    // no `faults` key, and a run of it produces a report with no
    // `degraded` key — files written before fault injection existed
    // stay byte-compatible in both directions.
    let w = Workload::of(Kernel::Trisolv, Scale(0.1));
    let built = w.build(2);
    let p = SystemParams {
        agents: 2,
        ..Default::default()
    };
    for kind in all_kinds() {
        let spec = kind.spec();
        assert!(
            !spec.to_json_pretty().contains("\"faults\""),
            "{kind}: preset spec grew a faults key"
        );
        let out = simulate_spec_as(SystemId::Preset(kind), &spec, &built, &p).unwrap();
        assert!(
            !out.to_json_pretty().contains("\"degraded\""),
            "{kind}: fault-free report grew a degraded key"
        );
    }
}

#[test]
fn accurate_tier_reports_match_pre_refactor_goldens() {
    // Byte-identity pin for the hot-path refactors (packed trace
    // storage, batched scheduler, controller fast path): these digests,
    // the manifest's `spec_equivalence/*` rows, were captured from the
    // pre-refactor tree on the same cell. Any
    // drift in report bytes — timing, energy, series, ordering — fails
    // here before it can silently shift figure data. Re-record only for
    // a deliberate model change.
    let w = Workload::of(Kernel::Gemver, Scale(0.25));
    let built = w.build(params().agents);
    let rows: Vec<(String, String)> = all_kinds()
        .into_iter()
        .map(|kind| {
            let out = simulate_built(kind, &built, &params());
            let got = fnv1a(out.to_json_pretty().as_bytes());
            (format!("spec_equivalence/{kind:?}"), goldens::hex(got))
        })
        .collect();
    goldens::check("spec_equivalence/", &rows);
}

#[test]
fn suite_json_schema_is_unchanged_for_presets() {
    // The report key for a preset is still the bare SystemKind variant
    // string — downstream JSON consumers see no schema change.
    let w = Workload::of(Kernel::Trisolv, Scale(0.1));
    let p = SystemParams {
        agents: 2,
        ..Default::default()
    };
    let r = dramless::sweep::sweep(&[SystemKind::DramLess], &[w], &p);
    let json = r.to_json();
    assert!(json.contains("\"system\": \"DramLess\""), "schema drifted");
    let back: dramless::SuiteResult = FromJson::from_json_str(&json).unwrap();
    assert_eq!(back.outcomes[0].system, SystemKind::DramLess);
}
