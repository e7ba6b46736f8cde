//! End-to-end telemetry: a traced run emits a well-formed Chrome
//! trace-event JSON with per-partition / per-RDB / per-PE lanes, the
//! scheduler counters behind the Fig. 13 ablation surface in
//! [`RunOutcome`] metrics, and suite JSON with metrics round-trips
//! byte-stably.

use dramless::system::simulate_spec_as;
use dramless::{
    simulate_spec_built, simulate_spec_traced, Buffer, Control, Datapath, FaultPlan, Medium,
    SuiteResult, SystemId, SystemKind, SystemParams, SystemSpec, TelemetrySpec,
};
use pram_ctrl::SchedulerKind;
use util::json::{FromJson, Json, ToJson};
use util::pool::Pool;
use util::telemetry::chrome_trace;
use workloads::{Kernel, Scale, Workload};

mod goldens;

/// A staged-PRAM point Table I never built (PALP-style): PRAM behind
/// P2P DMA with an Interleaving scheduler. It exercises partitions,
/// RDBs, PEs, the DRAM page cache, the staging path *and* the PRAM
/// datapath in one run — the richest trace any single spec produces.
fn palp_style() -> SystemSpec {
    SystemSpec {
        name: Some("palp-style".into()),
        medium: Medium::Pram3x,
        datapath: Datapath::P2pDma,
        buffer: Buffer::DramPageCache { frames: None },
        control: Control::HardwareAutomated {
            scheduler: SchedulerKind::Interleaving,
        },
        telemetry: None,
        faults: None,
        tier: Default::default(),
    }
}

fn params() -> SystemParams {
    SystemParams {
        agents: 3,
        ..Default::default()
    }
}

fn get<'j>(fields: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
    fields.iter().find(|(n, _)| n == key).map(|(_, v)| v)
}

#[test]
fn traced_run_emits_a_well_formed_chrome_trace() {
    let w = Workload::of(Kernel::Gemver, Scale(0.25));
    let built = w.build(params().agents);
    for spec in [palp_style(), SystemKind::DramLess.spec()] {
        let name = spec.display_name();
        let (out, events) = simulate_spec_traced(&spec, &built, &params()).unwrap();
        assert!(!events.is_empty(), "{name}: traced run recorded no events");
        assert!(!out.metrics.is_empty(), "traced run recorded no metrics");

        let trace = chrome_trace(&events);
        let Json::Arr(items) = &trace else {
            panic!("chrome trace must be a JSON array of event records");
        };
        let mut last_ts = f64::NEG_INFINITY;
        let mut lanes: Vec<String> = Vec::new();
        let mut spans = 0u64;
        let mut instants = 0u64;
        for item in items {
            let Json::Obj(fields) = item else {
                panic!("every trace record is an object");
            };
            let Some(Json::Str(ph)) = get(fields, "ph") else {
                panic!("every record carries a ph");
            };
            assert!(get(fields, "pid").is_some(), "record lacks pid");
            assert!(get(fields, "tid").is_some(), "record lacks tid");
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
                        panic!("event lacks a numeric ts");
                    };
                    assert!(
                        *ts >= last_ts,
                        "timestamps must be nondecreasing: {ts} after {last_ts}"
                    );
                    assert!(*ts >= 0.0);
                    last_ts = *ts;
                    if ph == "X" {
                        let Some(Json::F64(dur)) = get(fields, "dur") else {
                            panic!("complete event lacks dur");
                        };
                        assert!(*dur > 0.0);
                        spans += 1;
                    } else {
                        instants += 1;
                    }
                }
                other => panic!("unexpected event phase {other:?}"),
            }
        }
        assert!(spans > 0, "{name}: no complete events in the trace");
        assert!(instants > 0, "{name}: no instants (RAB/RDB hits)");
        // One named lane per component instance: PRAM partitions, RDBs
        // and PEs each get their own thread track.
        for prefix in ["partition/", "rdb/", "pe/"] {
            assert!(
                lanes.iter().any(|n| n.starts_with(prefix)),
                "{name}: no {prefix} lane among {lanes:?}"
            );
        }
        // Several PEs ran, each on its own lane.
        assert!(lanes.iter().filter(|n| n.starts_with("pe/")).count() >= 2);
    }
}

#[test]
fn scheduler_counters_surface_in_outcome_metrics() {
    // The DRAM-less preset runs the Final scheduler = interleaving +
    // selective erasing: both counter families must be live in the
    // outcome's metric set.
    let spec = SystemSpec {
        telemetry: Some(TelemetrySpec::default()),
        ..SystemKind::DramLess.spec()
    };
    let w = Workload::of(Kernel::Gemver, Scale(0.5));
    let built = w.build(params().agents);
    let out = simulate_spec_built(&spec, &built, &params()).unwrap();
    let m = &out.metrics;

    assert!(m.counter("pram.reads").unwrap_or(0) > 0);
    assert!(m.counter("pram.writes").unwrap_or(0) > 0);
    // Interleaving: address phases of one word overlapped another
    // word's data burst at least once on a multi-agent run.
    assert!(
        m.counter("pram.overlap_wins").unwrap_or(0) > 0,
        "interleave-overlap counter dead: {m:?}"
    );
    // Selective erasing: the pre-RESET pipeline observed writes
    // (hits when a speculative pre-RESET paid off, misses otherwise).
    let preerase = m.counter("pram.preerase_hits").unwrap_or(0)
        + m.counter("pram.preerase_misses").unwrap_or(0);
    assert!(preerase > 0, "selective-erase counters dead: {m:?}");
    // PE-side metrics ride along, including the latency histogram.
    assert!(m.counter("pe.instructions").unwrap_or(0) > 0);
    assert!(m.gauge_value("pe.ipc").unwrap_or(0.0) > 0.0);
    assert!(m.histogram("pram.read").is_some_and(|h| h.count() > 0));
    // Trace bookkeeping is attached even though the trace was dropped.
    assert!(m.counter("trace.events_recorded").unwrap_or(0) > 0);
}

#[test]
fn suite_json_with_metrics_round_trips_byte_stable() {
    let specs = [
        SystemSpec {
            telemetry: Some(TelemetrySpec::default()),
            ..SystemKind::DramLess.spec()
        },
        SystemSpec {
            telemetry: Some(TelemetrySpec::default()),
            ..SystemKind::Hetero.spec()
        },
    ];
    let w = Workload::of(Kernel::Trisolv, Scale(0.1));
    let p = SystemParams {
        agents: 2,
        ..Default::default()
    };
    let suite = dramless::sweep_specs(&specs, &[w], &p).unwrap();
    let text = suite.to_json();
    assert!(text.contains("\"metrics\""));

    // parse → serialize reproduces the exact bytes: per-outcome metric
    // sets are key-sorted, and the suite-level aggregate is re-derived.
    let back: SuiteResult = FromJson::from_json_str(&text).unwrap();
    assert_eq!(back.to_json(), text, "suite JSON not byte-stable");

    // The aggregate is the merge of the outcome sets.
    let agg = suite.aggregate_metrics();
    let per_cell: u64 = suite
        .outcomes
        .iter()
        .map(|o| o.metrics.counter("pe.instructions").unwrap_or(0))
        .sum();
    assert_eq!(agg.counter("pe.instructions"), Some(per_cell));
}

#[test]
fn aggregate_metrics_quantiles_match_concatenated_samples() {
    // Quantile stability under aggregation: because the histograms are
    // log2-bucketed, merging per-cell histograms produces exactly the
    // bucket counts of the concatenated sample stream — so suite-level
    // quantiles equal single-histogram quantiles, not merely approximate
    // them. Uses one tiny real run as an outcome template and swaps in
    // synthetic per-cell metric sets with known samples.
    use util::telemetry::{LatencyHistogram, MetricSet};
    let w = Workload::of(Kernel::Trisolv, Scale(0.1));
    let p = SystemParams {
        agents: 2,
        ..Default::default()
    };
    let built = w.build(p.agents);
    let template = simulate_spec_built(&SystemKind::DramLess.spec(), &built, &p).unwrap();

    // Three cells with samples spread across buckets, including ties
    // within a bucket and one far-tail outlier.
    let cells: [&[u64]; 3] = [
        &[700_000, 800_000, 900_000, 1_000_000, 40_000_000],
        &[1_200_000, 1_300_000, 1_400_000, 90_000_000],
        &[500_000, 600_000, 2_000_000_000],
    ];
    let mut concatenated = LatencyHistogram::new();
    let mut outcomes = Vec::new();
    for samples in cells {
        let mut m = MetricSet::new();
        for &ps in samples {
            m.record_latency_ps("guard.lat", ps);
            concatenated.record_ps(ps);
        }
        let mut o = template.clone();
        o.metrics = m;
        outcomes.push(o);
    }
    let suite = SuiteResult { outcomes };
    let agg = suite.aggregate_metrics();
    let merged = agg.histogram("guard.lat").expect("histogram aggregated");
    assert_eq!(merged.count(), concatenated.count());
    assert_eq!(merged.nonzero_buckets(), concatenated.nonzero_buckets());
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(
            merged.quantile_ns(q),
            concatenated.quantile_ns(q),
            "aggregated q={q} diverged from the concatenated-sample quantile"
        );
    }
}

#[test]
fn counted_traces_report_exactly_what_stored_traces_report() {
    // Only `simulate_spec_traced` hands events back; every other run
    // counts its trace calls instead of storing them. Both must attach
    // the same metrics (the two trace counters included) and the same
    // attribution, at ring capacities of 0, 64 and 65 536 events.
    let w = Workload::of(Kernel::Gemver, Scale(0.1));
    let p = params();
    let built = w.build(p.agents);
    for kind in [
        SystemKind::DramLess,
        SystemKind::PageBuffer,
        SystemKind::Hetero,
    ] {
        for attribution in [false, true] {
            for trace_events in [0, 64, 65_536] {
                let spec = SystemSpec {
                    telemetry: Some(TelemetrySpec {
                        trace_events,
                        attribution,
                    }),
                    ..kind.spec()
                };
                let cell = format!("{kind} attribution={attribution} ring={trace_events}");
                let counted = simulate_spec_as(SystemId::Preset(kind), &spec, &built, &p).unwrap();
                let (traced, events) = simulate_spec_traced(&spec, &built, &p).unwrap();
                assert_eq!(
                    counted.metrics.to_json_string(),
                    traced.metrics.to_json_string(),
                    "{cell}: metrics differ"
                );
                assert_eq!(
                    counted.attr.to_json_string(),
                    traced.attr.to_json_string(),
                    "{cell}: attribution differs"
                );
                assert_eq!(counted.attr.is_some(), attribution, "{cell}");
                let recorded = traced.metrics.counter("trace.events_recorded").unwrap();
                let ring = trace_events as u64;
                assert!(recorded > 64, "{cell}: too few events to fill a ring");
                assert_eq!(events.len() as u64, recorded.min(ring), "{cell}");
                assert_eq!(
                    traced.metrics.counter("trace.events_dropped"),
                    Some(recorded.saturating_sub(ring)),
                    "{cell}"
                );
            }
        }
    }
}

#[test]
fn attributed_faulted_grid_matches_its_golden_report() {
    // Byte pin for the probed path: every evaluated preset on the five
    // tail-forensics kernels, faults armed and attribution on, swept on
    // one thread. The report carries each cell's metrics (trace
    // counters and `pe.mem_op` included) and attribution block; the
    // digest (the manifest's `telemetry/*` row) was taken before trace
    // calls were counted instead of stored, so any drift in how probes
    // reach the report fails here.
    let kernels = [
        Kernel::Gemver,
        Kernel::Trisolv,
        Kernel::Lu,
        Kernel::Seidel,
        Kernel::Jaco2d,
    ];
    let workloads: Vec<Workload> = kernels
        .iter()
        .map(|&k| Workload::of(k, Scale(0.5)))
        .collect();
    let systems: Vec<(SystemId, SystemSpec)> = SystemKind::EVALUATED
        .iter()
        .map(|&k| {
            let spec = SystemSpec {
                faults: Some(FaultPlan::seeded(5)),
                telemetry: Some(TelemetrySpec {
                    trace_events: 4_096,
                    attribution: true,
                }),
                ..k.spec()
            };
            (SystemId::Preset(k), spec)
        })
        .collect();
    let p = SystemParams {
        seed: 3,
        ..SystemParams::default()
    };
    let (suite, _) =
        dramless::sweep::sweep_systems_on(&Pool::new(1), &systems, &workloads, &p).unwrap();
    assert_eq!(suite.outcomes.len(), 55);
    assert!(suite
        .outcomes
        .iter()
        .all(|o| o.attr.is_some() && o.degraded.is_some()));
    assert!(
        suite
            .outcomes
            .iter()
            .any(|o| o.metrics.counter("trace.events_dropped") > Some(0)),
        "the ring must overflow somewhere, or the drop count goes unpinned"
    );
    let got = util::fingerprint::fnv1a(suite.to_json().as_bytes());
    goldens::check(
        "telemetry/",
        &[(
            "telemetry/attributed-faulted-grid".to_string(),
            goldens::hex(got),
        )],
    );
}
