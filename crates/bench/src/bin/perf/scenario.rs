//! The four workloads: what one repetition runs, and the correctness
//! checks and accuracy references that run after the timed reps.
//!
//! Every workload is a closed loop with one client: the next rep starts
//! when the previous one ends. The seed feeds only generated inputs
//! (PRAM seeds, fault plans, traffic, capacity points); the modelled
//! caches start empty in every cell, as in the paper.

use crate::calls::{self, Grid, Pool};
use crate::trace::Tracer;

/// Stream label of the capacity-point draws.
const CAPACITY_STREAM: u64 = 0xBE7C_0001;

/// The capacity pressures `capacity-sweep` runs at: one draw per
/// half-octave stratum of [1, 16). The analytic tier was calibrated at
/// 2, so seven of the eight points are held out from its tuning.
pub fn capacity_points(seed: u64) -> [f64; 8] {
    std::array::from_fn(|i| {
        let bits = calls::stream_seed(seed, &[CAPACITY_STREAM, i as u64]) >> 11;
        let u = bits as f64 / (1u64 << 53) as f64;
        2f64.powf((i as f64 + u) / 2.0)
    })
}

/// What one timed repetition did.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time of the rep's calls into the simulator.
    pub secs: f64,
    /// Work units completed: cells, or served requests.
    pub work: u64,
    /// Why the rep or its per-rep check failed.
    pub error: Option<String>,
    /// Attributed-sweep time over its plain twin (`forensics` only).
    pub attr_cost: Option<f64>,
}

impl Rep {
    fn new(secs: f64, work: u64, outcome: Result<(), String>) -> Rep {
        Rep {
            secs,
            work,
            error: outcome.err(),
            attr_cost: None,
        }
    }
}

/// A named check and its outcome.
pub type Check = (&'static str, Result<(), String>);

/// One workload.
pub trait Scenario {
    /// What a work unit is: `cells` or `requests`.
    fn unit(&self) -> &'static str;

    /// Runs rep `i` on `pool`. Rep 0 is the untimed warm-up; its output
    /// is kept as the reference the later reps and checks compare to.
    fn rep(&mut self, pool: &Pool, i: u64, t: &mut Tracer) -> Rep;

    /// FNV-1a of the warm-up rep's report: identical across commits
    /// that only change speed.
    fn sim_digest(&self) -> u64;

    /// Correctness checks that run once, after the timed reps.
    fn checks(&self, t: &mut Tracer) -> Vec<Check>;

    /// The accurate paper grid, when the workload already ran it.
    fn paper_result(&self) -> Option<&calls::SuiteResult> {
        None
    }

    /// The analytic grids at [`capacity_points`], when the workload
    /// already ran them.
    fn analytic_results(&self) -> Option<&[calls::SuiteResult]> {
        None
    }
}

/// The workload called `name`, its inputs generated from `seed`.
pub fn new(name: &str, seed: u64) -> Option<Box<dyn Scenario>> {
    Some(match name {
        "paper-grid" => Box::new(PaperGrid {
            grid: Grid::paper(seed),
            first: None,
        }),
        "capacity-sweep" => Box::new(CapacitySweep {
            grids: capacity_points(seed)
                .iter()
                .map(|&cp| Grid::paper(seed).analytic().at_pressure(cp))
                .collect(),
            first: None,
        }),
        "fleet-burst" => Box::new(FleetBurst { seed, first: None }),
        "forensics" => Box::new(Forensics { seed, first: None }),
        _ => return None,
    })
}

fn digest(text: &str) -> u64 {
    calls::fnv1a(text.as_bytes())
}

/// Compares a re-run's report bytes with the warm-up's.
fn same_bytes(what: &str, got: Result<String, String>, want: u64) -> Result<(), String> {
    match got {
        Ok(text) if digest(&text) == want => Ok(()),
        Ok(text) => Err(format!(
            "{what}: digest {:#018x}, warm-up had {want:#018x}",
            digest(&text)
        )),
        Err(e) => Err(e),
    }
}

/// `paper-grid`: the paper's evaluation, 11 presets × 15 kernels.
struct PaperGrid {
    grid: Grid,
    first: Option<(u64, calls::SuiteResult)>,
}

impl Scenario for PaperGrid {
    fn unit(&self) -> &'static str {
        "cells"
    }

    fn rep(&mut self, pool: &Pool, i: u64, t: &mut Tracer) -> Rep {
        let (result, secs) = t.timed("rep", i, |t| {
            t.span("dramless::sweep", i, |_| calls::sweep(pool, &self.grid))
        });
        let outcome = result.and_then(|r| {
            let d = digest(&calls::report_json(&r));
            match &self.first {
                None => {
                    self.first = Some((d, r));
                    Ok(())
                }
                Some((want, _)) if *want == d => Ok(()),
                Some(_) => Err(format!("rep {i} report differs from the warm-up's")),
            }
        });
        Rep::new(secs, self.grid.cells() as u64, outcome)
    }

    fn sim_digest(&self) -> u64 {
        self.first.as_ref().map_or(0, |f| f.0)
    }

    fn checks(&self, t: &mut Tracer) -> Vec<Check> {
        let got = t.span("dramless::sweep@1-thread", 0, |_| {
            calls::sweep(&calls::pool(1), &self.grid).map(|r| calls::report_json(&r))
        });
        vec![(
            "report bytes identical on 1 and 2 threads",
            same_bytes("1-thread sweep", got, self.sim_digest()),
        )]
    }

    fn paper_result(&self) -> Option<&calls::SuiteResult> {
        self.first.as_ref().map(|f| &f.1)
    }
}

/// `capacity-sweep`: the paper grid on the analytic tier at the eight
/// [`capacity_points`].
struct CapacitySweep {
    grids: Vec<Grid>,
    first: Option<(u64, Vec<calls::SuiteResult>)>,
}

impl Scenario for CapacitySweep {
    fn unit(&self) -> &'static str {
        "cells"
    }

    fn rep(&mut self, pool: &Pool, i: u64, t: &mut Tracer) -> Rep {
        let grids = &self.grids;
        let (results, secs) = t.timed("rep", i, |t| {
            grids
                .iter()
                .enumerate()
                .map(|(k, g)| t.span("dramless::sweep", k as u64, |_| calls::sweep(pool, g)))
                .collect::<Result<Vec<_>, String>>()
        });
        let outcome = results.and_then(|rs| {
            let texts: String = rs.iter().map(calls::report_json).collect();
            let d = digest(&texts);
            match &self.first {
                None => {
                    self.first = Some((d, rs));
                    Ok(())
                }
                Some((want, _)) if *want == d => Ok(()),
                Some(_) => Err(format!("rep {i} reports differ from the warm-up's")),
            }
        });
        let cells = grids.iter().map(Grid::cells).sum::<usize>() as u64;
        Rep::new(secs, cells, outcome)
    }

    fn sim_digest(&self) -> u64 {
        self.first.as_ref().map_or(0, |f| f.0)
    }

    fn checks(&self, _t: &mut Tracer) -> Vec<Check> {
        Vec::new()
    }

    fn analytic_results(&self) -> Option<&[calls::SuiteResult]> {
        self.first.as_ref().map(|f| f.1.as_slice())
    }
}

/// `fleet-burst`: 500k requests of bursty multi-tenant traffic served
/// by an 8-accelerator fleet; each rep draws fresh traffic.
struct FleetBurst {
    seed: u64,
    first: Option<calls::FleetReport>,
}

impl Scenario for FleetBurst {
    fn unit(&self) -> &'static str {
        "requests"
    }

    fn rep(&mut self, pool: &Pool, i: u64, t: &mut Tracer) -> Rep {
        let spec = calls::fleet_burst(calls::stream_seed(self.seed, &[i]));
        let (report, secs) = t.timed("rep", i, |t| {
            t.span("dramless::run_fleet_on", i, |_| calls::serve(pool, &spec))
        });
        match report {
            Err(e) => Rep::new(secs, 0, Err(e)),
            Ok(r) => {
                let rep = Rep::new(secs, calls::fleet_offered(&r), calls::conservation(&r));
                if self.first.is_none() {
                    self.first = Some(r);
                }
                rep
            }
        }
    }

    fn sim_digest(&self) -> u64 {
        self.first
            .as_ref()
            .map_or(0, |r| digest(&calls::fleet_json(r)))
    }

    fn checks(&self, t: &mut Tracer) -> Vec<Check> {
        let Some(first) = &self.first else {
            return vec![("warm-up report exists", Err("warm-up failed".to_string()))];
        };
        let spec = calls::fleet_burst(calls::stream_seed(self.seed, &[0]));
        let got = t.span("dramless::run_fleet_on@1-thread", 0, |_| {
            calls::serve(&calls::pool(1), &spec).map(|r| calls::fleet_json(&r))
        });
        vec![
            (
                "report bytes identical on 1 and 2 threads",
                same_bytes("1-thread fleet", got, self.sim_digest()),
            ),
            (
                "report round-trips through JSON",
                calls::fleet_round_trip(first),
            ),
        ]
    }
}

/// `forensics`: the tail workflow. An attributed, fault-injected sweep
/// over the 5 forensics kernels; record the DRAM-less cell holding the
/// worst exec-phase request; round-trip the recording through JSON
/// text; verify it; replay the one-request window of that request.
struct Forensics {
    seed: u64,
    first: Option<calls::SuiteResult>,
}

impl Scenario for Forensics {
    fn unit(&self) -> &'static str {
        "cells"
    }

    fn rep(&mut self, pool: &Pool, i: u64, t: &mut Tracer) -> Rep {
        let fault_seed = calls::stream_seed(self.seed, &[i]);
        let plain = Grid::forensics(self.seed, fault_seed, false);
        let attributed = Grid::forensics(self.seed, fault_seed, true);
        // The plain twin runs untimed, right before the rep, so the
        // attribution cost is a ratio of back-to-back sweeps.
        let (plain_result, plain_secs) =
            t.timed("dramless::sweep(plain)", i, |_| calls::sweep(pool, &plain));
        if let Err(e) = plain_result {
            return Rep::new(plain_secs, 0, Err(e));
        }
        let mut attr_secs = f64::NAN;
        let (result, secs) = t.timed("rep", i, |t| {
            let (swept, s) = t.timed("dramless::sweep(attributed)", i, |_| {
                calls::sweep(pool, &attributed)
            });
            attr_secs = s;
            let swept = swept?;
            let (kernel, index) = calls::worst_dramless_exec(&swept, &attributed)
                .ok_or_else(|| "no exec-phase request was attributed".to_string())?;
            let rec = t.span("replay::record_run", i, |_| {
                calls::record(&attributed, kernel)
            })?;
            let text = t.span("json::encode", i, |_| calls::encode_recording(&rec));
            let back = t.span("json::decode", i, |_| calls::decode_recording(&text))?;
            t.span("replay::verify", i, |_| calls::verify(&back))?;
            t.span("replay::replay", i, |_| calls::replay_request(&back, index))?;
            Ok::<_, String>(swept)
        });
        let outcome = result.map(|swept| {
            if self.first.is_none() {
                self.first = Some(swept);
            }
        });
        Rep {
            attr_cost: Some(attr_secs / plain_secs),
            ..Rep::new(secs, attributed.cells() as u64, outcome)
        }
    }

    fn sim_digest(&self) -> u64 {
        self.first
            .as_ref()
            .map_or(0, |r| digest(&calls::report_json(r)))
    }

    fn checks(&self, t: &mut Tracer) -> Vec<Check> {
        let grid = Grid::forensics(self.seed, calls::stream_seed(self.seed, &[0]), true);
        let got = t.span("dramless::sweep(attributed)@1-thread", 0, |_| {
            calls::sweep(&calls::pool(1), &grid).map(|r| calls::report_json(&r))
        });
        vec![(
            "report bytes identical on 1 and 2 threads",
            same_bytes("1-thread attributed sweep", got, self.sim_digest()),
        )]
    }
}

/// The paper's headline ratios: the `model.*` metric each sets and the
/// value the paper reports, in [`calls::headline_ratios`] order.
pub const PAPER_RATIOS: [(&str, f64); 5] = [
    ("model.dl_vs_hetero_bw", 1.93),
    ("model.dl_vs_heterodirect_bw", 1.47),
    ("model.dl_vs_firmware_bw", 1.25),
    ("model.dl_vs_pagebuffer_bw", 1.64),
    ("model.dl_energy_vs_heterodirect", 0.19),
];

/// How far the simulator's outputs sit from their references.
#[derive(Debug, Clone)]
pub struct Fidelity {
    /// exp(mean |ln(sim/paper)|) − 1 over [`PAPER_RATIOS`], in percent.
    pub paper_err_pct: f64,
    /// exp(mean |ln(analytic/accurate)|) − 1 of total time over the
    /// capacity grid's cells, in percent.
    pub tier_err_pct: f64,
    /// Largest |analytic/accurate − 1| over those cells, in percent.
    pub max_drift_pct: f64,
    /// The simulated headline ratios, in [`PAPER_RATIOS`] order.
    pub ratios: [f64; 5],
}

/// Measures the paper error of the accurate paper grid and the analytic
/// tier's error against the accurate tier at every capacity point,
/// reusing whatever grids the workload already ran.
pub fn fidelity(
    s: &dyn Scenario,
    pool: &Pool,
    seed: u64,
    t: &mut Tracer,
) -> Result<Fidelity, String> {
    let owned_paper;
    let paper = match s.paper_result() {
        Some(r) => r,
        None => {
            owned_paper = t.span("dramless::sweep(paper)", 0, |_| {
                calls::sweep(pool, &Grid::paper(seed))
            })?;
            &owned_paper
        }
    };
    let ratios = calls::headline_ratios(paper);
    let paper_log: f64 = ratios
        .iter()
        .zip(PAPER_RATIOS)
        .map(|(sim, (_, want))| (sim / want).ln().abs())
        .sum();

    let points = capacity_points(seed);
    let owned_analytic;
    let analytic = match s.analytic_results() {
        Some(r) => r,
        None => {
            owned_analytic = points
                .iter()
                .enumerate()
                .map(|(k, &cp)| {
                    t.span("dramless::sweep(analytic)", k as u64, |_| {
                        calls::sweep(pool, &Grid::paper(seed).analytic().at_pressure(cp))
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            &owned_analytic
        }
    };
    let (mut tier_log, mut cells, mut max_drift) = (0.0, 0usize, 0f64);
    for (k, (&cp, fast)) in points.iter().zip(analytic).enumerate() {
        let accurate = t.span("dramless::sweep(accurate)", k as u64, |_| {
            calls::sweep(pool, &Grid::paper(seed).at_pressure(cp))
        })?;
        let pairs = calls::cell_times_ns(fast)
            .into_iter()
            .zip(calls::cell_times_ns(&accurate));
        for (a, b) in pairs {
            tier_log += (a / b).ln().abs();
            max_drift = max_drift.max((a / b - 1.0).abs());
            cells += 1;
        }
    }
    Ok(Fidelity {
        paper_err_pct: ((paper_log / ratios.len() as f64).exp() - 1.0) * 100.0,
        tier_err_pct: ((tier_log / cells.max(1) as f64).exp() - 1.0) * 100.0,
        max_drift_pct: max_drift * 100.0,
        ratios,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_points_are_seeded_and_one_per_stratum() {
        for seed in [0, 1, 2, 42, u64::MAX] {
            let points = capacity_points(seed);
            assert_eq!(
                points,
                capacity_points(seed),
                "seed {seed} is not deterministic"
            );
            for (i, &cp) in points.iter().enumerate() {
                let lo = 2f64.powf(i as f64 / 2.0);
                let hi = 2f64.powf((i + 1) as f64 / 2.0);
                assert!(
                    lo <= cp && cp < hi,
                    "seed {seed}: point {i} = {cp} outside [{lo}, {hi})"
                );
            }
        }
        assert_ne!(capacity_points(1), capacity_points(2));
    }

    #[test]
    fn every_listed_workload_exists() {
        for name in &crate::metrics::Benchmark::load().workloads {
            assert!(new(name, 1).is_some(), "{name}");
        }
        assert!(new("nope", 1).is_none());
    }
}
