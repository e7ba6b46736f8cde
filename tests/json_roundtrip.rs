//! Round-trip tests of the in-tree JSON layer over the public config
//! and report types, plus determinism checks for the in-tree PRNG.
//!
//! These pin the serialization format the CI bench artifacts and
//! `dramless-sim --json` rely on: serialize → parse → compare must be
//! the identity for every type a report contains. The input files
//! (specs, fault plans, fleets, recordings) are strict: a mutated key,
//! tag or truncated text is an error, never a panic or a silent default.

use dramless::replay::{self, Recording};
use dramless::report::Breakdown;
use dramless::traffic::ArrivalProcess;
use dramless::{Control, FleetSpec, SystemId, SystemKind, SystemParams, SystemSpec};
use pram_ctrl::{FirmwareParams, SchedulerKind};
use sim_core::fault::FaultPlan;
use sim_core::Picos;
use util::json::{FromJson, Json, JsonError, ToJson};
use util::rng::Rng64;
use workloads::{Kernel, Scale, Workload};

fn round_trip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: &T) {
    let compact = v.to_json_string();
    let pretty = v.to_json_pretty();
    let from_compact = T::from_json_str(&compact).expect("compact parses");
    let from_pretty = T::from_json_str(&pretty).expect("pretty parses");
    assert_eq!(&from_compact, v, "compact round trip");
    assert_eq!(&from_pretty, v, "pretty round trip");
}

#[test]
fn system_kind_round_trips_every_variant() {
    for k in SystemKind::EVALUATED {
        round_trip(&k);
    }
    // Unit enums serialize as their variant name, like serde.
    assert_eq!(SystemKind::DramLess.to_json(), Json::Str("DramLess".into()));
}

#[test]
fn system_params_round_trip() {
    round_trip(&SystemParams::default());
    let custom = SystemParams {
        agents: 3,
        seed: 987654321,
        capacity_pressure: 1.75,
        page_bytes: 2048,
        image_bytes_per_agent: 64,
        sample_bucket_us: 5,
    };
    round_trip(&custom);
}

#[test]
fn breakdown_round_trip_preserves_picosecond_exactness() {
    let b = Breakdown {
        offload: Picos::from_ns(123),
        staging_in: Picos::from_us(45),
        compute: Picos::from_ms(6),
        // 2^62 - 1: past 2^53, an f64 would round it up to 2^62, and
        // it is the largest odd clock the decoder accepts.
        memory: Picos::CEILING - Picos::from_ps(1),
        staging_out: Picos::ZERO,
    };
    round_trip(&b);
}

#[test]
fn run_outcome_and_suite_result_round_trip() {
    // A real (small) simulation exercises every nested report type:
    // ExecReport series, EnergyBook ledgers, Breakdown, kernel enum.
    let w = Workload::of(Kernel::Trisolv, Scale::small());
    let params = SystemParams {
        agents: 2,
        ..SystemParams::default()
    };
    let r = dramless::sweep::sweep(&[SystemKind::DramLess], &[w], &params);
    let json = r.to_json();
    let back: dramless::SuiteResult = FromJson::from_json_str(&json).expect("suite parses");
    assert_eq!(back.outcomes.len(), r.outcomes.len());
    let (a, b) = (&r.outcomes[0], &back.outcomes[0]);
    assert_eq!(a.system, b.system);
    assert_eq!(a.kernel, b.kernel);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.data_bytes, b.data_bytes);
    assert_eq!(a.breakdown, b.breakdown);
}

#[test]
fn workload_types_round_trip() {
    for k in Kernel::ALL {
        round_trip(&k);
    }
    round_trip(&Scale::small());
}

#[test]
fn prng_is_deterministic_for_a_fixed_seed() {
    let mut a = util::rng::Rng64::seed(0xDEAD_BEEF);
    let mut b = util::rng::Rng64::seed(0xDEAD_BEEF);
    let xs: Vec<u64> = (0..1000).map(|_| a.next_u64()).collect();
    let ys: Vec<u64> = (0..1000).map(|_| b.next_u64()).collect();
    assert_eq!(xs, ys);
    // A different seed diverges immediately.
    let mut c = util::rng::Rng64::seed(0xDEAD_BEF0);
    assert_ne!(xs[0], c.next_u64());
}

#[test]
fn prng_forks_are_deterministic_and_independent() {
    let mut base = util::rng::Rng64::seed(7);
    let mut f1 = base.fork(1);
    let mut f2 = base.fork(2);
    let mut f1b = util::rng::Rng64::seed(7).fork(1);
    let a: Vec<u64> = (0..64).map(|_| f1.next_u64()).collect();
    let b: Vec<u64> = (0..64).map(|_| f1b.next_u64()).collect();
    assert_eq!(a, b, "same fork stream replays");
    let c: Vec<u64> = (0..64).map(|_| f2.next_u64()).collect();
    assert_ne!(a, c, "distinct streams differ");
}

#[test]
fn sim_rng_pinned_first_draws() {
    // Freeze the simulator-facing generator: changing the PRNG would
    // silently shift every seeded experiment, so pin its first outputs.
    let mut r = sim_core::SimRng::seed(42);
    let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
    let mut again = sim_core::SimRng::seed(42);
    let replay: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
    assert_eq!(first, replay);
    for w in first.windows(2) {
        assert_ne!(w[0], w[1]);
    }
}

#[test]
fn committed_ci_inputs_decode_strictly() {
    let plan = FaultPlan::from_json_str(include_str!("../examples/chaos-plan.json"))
        .expect("CI's fault plan matches FaultPlan's fields");
    assert!(!plan.pram.is_inert(), "CI's chaos plan must inject faults");
    let spec = SystemSpec::from_json_str(include_str!("../examples/tlc-p2p.json"))
        .expect("the README's spec matches SystemSpec's fields");
    assert_eq!(spec.display_name(), "tlc-p2p");
}

/// One input file: its compact JSON and the strict decoder that reads it.
struct Input {
    label: String,
    text: String,
    decode: fn(&str) -> Result<(), JsonError>,
}

fn decode_as<T: FromJson>(text: &str) -> Result<(), JsonError> {
    T::from_json_str(text).map(drop)
}

fn input<T: ToJson + FromJson>(label: &str, v: &T) -> Input {
    Input {
        label: label.to_string(),
        text: v.to_json_string(),
        decode: decode_as::<T>,
    }
}

/// Every input family: the presets plus a firmware spec with both
/// optional knobs on, the example fleet on all three arrival families,
/// a seeded fault plan and a small recording.
fn inputs() -> Vec<Input> {
    let mut all: Vec<Input> = SystemKind::EVALUATED
        .into_iter()
        .chain([SystemKind::Ideal])
        .map(|k| input(k.label(), &k.spec()))
        .collect();
    let firmware = SystemSpec {
        control: Control::Firmware {
            scheduler: SchedulerKind::Interleaving,
            params: FirmwareParams::default(),
        },
        telemetry: Some(Default::default()),
        faults: Some(FaultPlan::seeded(3)),
        ..SystemKind::DramLess.spec()
    };
    all.push(input("firmware spec", &firmware));
    for arrivals in [
        ArrivalProcess::Poisson { rate_per_s: 500.0 },
        FleetSpec::example().arrivals,
        ArrivalProcess::Diurnal {
            mean_per_s: 500.0,
            swing: 0.5,
            period_ms: 100.0,
        },
    ] {
        let fleet = FleetSpec {
            arrivals,
            ..FleetSpec::example()
        };
        all.push(input(&format!("{} fleet", arrivals.label()), &fleet));
    }
    all.push(input("fault plan", &FaultPlan::seeded(7)));
    let systems = [(
        SystemId::Preset(SystemKind::DramLess),
        SystemKind::DramLess.spec(),
    )];
    let params = SystemParams {
        agents: 2,
        ..SystemParams::default()
    };
    let w = Workload::of(Kernel::Trisolv, Scale::small());
    let rec: Recording = replay::record_run(&systems, &[w], &params, 1 << 40).unwrap();
    all.push(input("recording", &rec));
    all
}

/// Whether `s` reads like a variant tag (`"Tlc"`, `"HardwareAutomated"`).
fn is_tag(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_uppercase()) && s.chars().all(|c| c.is_ascii_alphanumeric())
}

/// Child-index paths to every non-empty object the typed decoders read,
/// and to
/// every variant tag (a tag string, or a one-key object keyed by one).
/// State-image payloads (`data`) are skipped: they are checked when a
/// replay restores them, not when the recording decodes. `name` and
/// `system` hold free-form names, so their strings are not tags.
fn walk(
    v: &Json,
    path: &mut Vec<usize>,
    objects: &mut Vec<Vec<usize>>,
    tags: &mut Vec<Vec<usize>>,
) {
    match v {
        Json::Obj(pairs) => {
            if !pairs.is_empty() {
                objects.push(path.clone());
            }
            if let [(k, _)] = &pairs[..] {
                if is_tag(k) {
                    tags.push(path.clone());
                }
            }
            for (i, (k, child)) in pairs.iter().enumerate() {
                let named = matches!(k.as_str(), "name" | "system");
                if k == "data" || (named && matches!(child, Json::Str(_))) {
                    continue;
                }
                path.push(i);
                walk(child, path, objects, tags);
                path.pop();
            }
        }
        Json::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                path.push(i);
                walk(child, path, objects, tags);
                path.pop();
            }
        }
        Json::Str(s) if is_tag(s) => tags.push(path.clone()),
        _ => {}
    }
}

fn at<'j>(v: &'j mut Json, path: &[usize]) -> &'j mut Json {
    match (v, path) {
        (v, []) => v,
        (Json::Obj(pairs), [i, rest @ ..]) => at(&mut pairs[*i].1, rest),
        (Json::Arr(items), [i, rest @ ..]) => at(&mut items[*i], rest),
        _ => unreachable!("paths come from walk"),
    }
}

fn pick<'a, T>(rng: &mut Rng64, items: &'a [T]) -> &'a T {
    &items[rng.range_usize(0, items.len() - 1)]
}

/// Applies one mutation: an unknown key at some object, a renamed key,
/// an unknown variant tag, or truncated text.
fn mutate(rng: &mut Rng64, text: &str) -> (String, String) {
    let mut v = Json::parse(text).unwrap();
    let (mut objects, mut tags) = (Vec::new(), Vec::new());
    walk(&v, &mut Vec::new(), &mut objects, &mut tags);
    let what = match rng.range_u64(0, 3) {
        0 => {
            let Json::Obj(pairs) = at(&mut v, pick::<Vec<usize>>(rng, &objects)) else {
                unreachable!()
            };
            pairs.push(("stray_key".to_string(), Json::Null));
            "added stray_key".to_string()
        }
        1 => {
            let Json::Obj(pairs) = at(&mut v, pick::<Vec<usize>>(rng, &objects)) else {
                unreachable!()
            };
            let i = rng.range_usize(0, pairs.len() - 1);
            pairs[i].0.push('x');
            format!("renamed {}", pairs[i].0)
        }
        2 if !tags.is_empty() => match at(&mut v, pick::<Vec<usize>>(rng, &tags)) {
            Json::Str(s) => format!("retagged {}", std::mem::replace(s, "Bogus".into())),
            Json::Obj(pairs) => format!(
                "retagged {}",
                std::mem::replace(&mut pairs[0].0, "Bogus".into())
            ),
            _ => unreachable!(),
        },
        _ => {
            let cut = rng.range_usize(0, text.len() - 1);
            let cut = (0..=cut).rev().find(|&c| text.is_char_boundary(c)).unwrap();
            return (text[..cut].to_string(), format!("truncated to {cut} bytes"));
        }
    };
    (v.render(false), what)
}

#[test]
fn mutated_inputs_are_errors_not_panics_or_defaults() {
    let inputs = inputs();
    for i in &inputs {
        (i.decode)(&i.text).unwrap_or_else(|e| panic!("{}: pristine input fails: {e}", i.label));
    }
    util::for_each_case!(256, |rng| {
        let i = pick(&mut rng, &inputs);
        let (text, what) = mutate(&mut rng, &i.text);
        assert!(
            (i.decode)(&text).is_err(),
            "{}: {what} still decodes",
            i.label
        );
    });
}

/// The value at `path` (object keys, array indices) inside `v`.
fn at_key<'j>(mut v: &'j mut Json, path: &[String]) -> &'j mut Json {
    for key in path {
        v = match v {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1,
            Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
            _ => unreachable!("{key} indexes a scalar"),
        };
    }
    v
}

#[test]
fn mutated_recording_numbers_replay_to_ok_or_a_typed_error() {
    // The recording's own numbers — checkpoint counts and digests, the
    // fingerprint, the cadence and the tape — set to 0, n ± 1, 2^62 or
    // 2^64 − 1000. A mutant either fails to decode or replays, full and
    // windowed, to `Ok` or a typed error; never a panic. Only the
    // cadence is not an input of the replay, so every other changed
    // number must fail the full verify.
    let systems = [(
        SystemId::Preset(SystemKind::DramLess),
        SystemKind::DramLess.spec(),
    )];
    let params = SystemParams {
        agents: 2,
        ..SystemParams::default()
    };
    let w = Workload::of(Kernel::Gemver, Scale(0.1));
    let rec = replay::record_run(&systems, &[w], &params, 8).unwrap();
    let cell = &rec.cells[0];
    assert!(cell.checkpoints.len() >= 3);
    let window = cell.checkpoints[cell.checkpoints.len() / 2].requests + 1;
    let pristine = rec.to_json();
    let path = |keys: &[&str]| keys.iter().map(|k| k.to_string()).collect::<Vec<_>>();
    util::for_each_case!(96, |rng| {
        let keys = match rng.range_u64(0, 4) {
            0 => path(&["checkpoint_every"]),
            1 => {
                let field = *pick(&mut rng, &["schedule", "requests", "stream", "report"]);
                path(&["cells", "0", "fingerprint", field])
            }
            2 | 3 => {
                let field = if rng.chance(0.5) {
                    "requests"
                } else {
                    "stream"
                };
                let c = rng.range_usize(0, cell.checkpoints.len() - 1).to_string();
                path(&["cells", "0", "checkpoints", &c, field])
            }
            _ => {
                let t = rng.range_usize(0, cell.tape.len() - 1).to_string();
                path(&["cells", "0", "tape", &t])
            }
        };
        let mut v = pristine.clone();
        let slot = at_key(&mut v, &keys);
        let n = slot.as_u64().expect("a number");
        let value = *pick(
            &mut rng,
            &[
                0,
                n.wrapping_add(1),
                n.wrapping_sub(1),
                1 << 62,
                u64::MAX - 999,
            ],
        );
        *slot = value.to_json();
        let what = format!("{} = {value} (was {n})", keys.join("."));
        let Ok(mutant) = Recording::from_json_str(&v.render(false)) else {
            return;
        };
        let verified = replay::verify(&mutant);
        assert!(
            verified.is_err() || value == n || keys[0] == "checkpoint_every",
            "{what} still verifies"
        );
        let _ = replay::replay(&mutant, 0, window..window + 1);
    });
}
