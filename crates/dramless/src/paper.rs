//! The paper's evaluation (§VI), reproduced from one set of runs, and
//! the one table of its claims.
//!
//! [`Evaluation::run`] sweeps the 12-system × 15-kernel grid
//! ([`SystemKind::EVALUATED`] plus Ideal, [`Scale::paper`],
//! [`SystemParams::default`]) in one call and times the §V-A controller
//! operations. [`CLAIMS`] holds every paper number this reproduction
//! checks: each row names its figure, the paper's value, how it is
//! measured from an [`Evaluation`], and the band it must fall in, with
//! the reason for that band. `tests/paper_claims.rs` asserts every row.
//!
//! [`reproduce`] adds the Fig. 13 scheduler grid and the extension
//! ablations and renders every figure and table as one JSON file (a
//! list of tables: title, column names, labelled rows), plus the claims
//! as `claims.md`. `dramless-sim reproduce --out DIR` writes them;
//! EXPERIMENTS.md's headline table is `claims.md`, between
//! [`CLAIMS_BEGIN`] and [`CLAIMS_END`].

use crate::config::{SystemId, SystemKind, SystemParams};
use crate::report::{RunOutcome, SuiteResult};
use crate::spec::{Control, SystemSpec};
use crate::sweep::{sweep_on, sweep_systems_on};
use crate::system::simulate_dramless_scheduler;
use flash::{CellKind, FlashTiming};
use pram::{BufferId, BurstLen, PartitionId, PramModule, PramTiming, RowId};
use pram_ctrl::{AddressMap, PramController, SchedulerKind, SubsystemConfig};
use sim_core::stats::TimeSeries;
use sim_core::{MemoryBackend, Picos};
use storage::norintf::NorPramParams;
use storage::optane::PramSsdParams;
use util::json::{Json, ToJson};
use util::pool::Pool;
use workloads::{Kernel, Scale, Workload};

/// One figure's or table's rows: a title, the column names (the first
/// names the row labels) and labelled rows of values.
#[derive(Debug, Clone, PartialEq)]
struct Table {
    /// What the table shows.
    title: String,
    /// Column names; the first is the row labels'.
    columns: Vec<String>,
    /// Each row's label and its values, one per remaining column.
    rows: Vec<(String, Vec<Json>)>,
}

util::json_struct!(Table {
    title,
    columns,
    rows
});

impl Table {
    /// A table with no rows; `columns` are `|`-separated, as in a
    /// markdown header.
    fn new(title: &str, columns: &str) -> Table {
        Table {
            title: title.to_string(),
            columns: columns.split('|').map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    fn push(&mut self, label: impl Into<String>, values: Vec<Json>) {
        self.rows.push((label.into(), values));
    }

    fn push_nums(&mut self, label: impl Into<String>, values: impl IntoIterator<Item = f64>) {
        self.push(label, values.into_iter().map(Json::F64).collect());
    }
}

/// §V-A at operation granularity: the controller latencies behind the
/// interleaving and selective-erasing claims.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpLatencies {
    /// One 32 B three-phase read (pre-active, activate, BL16 burst) on
    /// an idle module.
    pub word_read: Picos,
    /// Mean latency of one 512 B read in a back-to-back 128 KiB stream
    /// (seed 99), per scheduler in [`SchedulerKind::ALL`] order.
    pub stream_read: [Picos; 4],
    /// A SET-only program: the write selective erasing leaves.
    pub program_set: Picos,
    /// A RESET + SET overwrite.
    pub program_overwrite: Picos,
}

impl OpLatencies {
    /// Times each operation on a fresh module or controller.
    pub fn measure() -> OpLatencies {
        let mut m = PramModule::new(PramTiming::table2(), 1);
        let row = RowId::new(0, 0);
        let lb = m.geometry().lower_row_bits;
        let pre = m.pre_active(Picos::ZERO, BufferId::B0, row.upper(lb));
        let act = m.activate(pre.end, BufferId::B0, row.lower(lb));
        let (rd, _) = m.read_burst(act.end, Picos::ZERO, BufferId::B0, 0, BurstLen::Bl16);
        let stream_read = SchedulerKind::ALL.map(|s| {
            let mut c = PramController::new(SubsystemConfig::paper(s, 99));
            let mut t = Picos::ZERO;
            for i in 0..256u64 {
                t = c.read(t, i * 512, 512).end;
            }
            t / 256
        });
        let t = PramTiming::table2();
        OpLatencies {
            word_read: rd.end,
            stream_read,
            program_set: t.t_program_set,
            program_overwrite: t.t_program_overwrite(),
        }
    }

    fn stream(&self, s: SchedulerKind) -> f64 {
        let i = SchedulerKind::ALL.iter().position(|&k| k == s);
        self.stream_read[i.expect("every scheduler is in ALL")].as_ns_f64()
    }
}

/// The runs every claim is measured over.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The 12-system × 15-kernel grid, in sweep order.
    pub grid: SuiteResult,
    /// The §V-A controller operations.
    pub ops: OpLatencies,
}

impl Evaluation {
    /// Sweeps the grid on `pool` in one call and times the §V-A
    /// operations.
    pub fn run(pool: &Pool) -> Evaluation {
        let mut kinds = SystemKind::EVALUATED.to_vec();
        kinds.push(SystemKind::Ideal);
        let suite = Workload::suite(Scale::paper());
        Evaluation {
            grid: sweep_on(pool, &kinds, &suite, &SystemParams::default()).0,
            ops: OpLatencies::measure(),
        }
    }

    fn bw(&self, system: SystemKind, baseline: SystemKind) -> f64 {
        self.grid.mean_normalized_bandwidth(system, baseline)
    }

    fn energy(&self, system: SystemKind, baseline: SystemKind) -> f64 {
        self.grid.mean_relative_energy(system, baseline)
    }

    fn cell(&self, system: SystemKind, kernel: Kernel) -> &RunOutcome {
        self.grid.get(system, kernel).expect("in the grid")
    }

    /// Firmware-managed over hardware-automated DRAM-less bandwidth, per
    /// kernel in [`Kernel::ALL`] order (Fig. 7).
    fn firmware_retention(&self) -> impl Iterator<Item = f64> + '_ {
        Kernel::ALL.into_iter().map(|k| {
            self.cell(DramLessFirmware, k).bandwidth() / self.cell(DramLess, k).bandwidth()
        })
    }
}

/// How a measured value is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A ratio, written `1.95×`.
    Times,
    /// A fraction, written as a percentage: `32 %`.
    Share,
}

impl Unit {
    fn show(self, v: f64) -> String {
        match self {
            Unit::Times => format!("{v:.2}×"),
            Unit::Share => format!("{:.0} %", v * 100.0),
        }
    }
}

/// The range a measured value must fall in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// `lo <= v < hi`.
    Within(f64, f64),
    /// `v > x`.
    Above(f64),
    /// `v < x`.
    Below(f64),
}

impl Band {
    /// Whether `v` lies in the band.
    fn holds(self, v: f64) -> bool {
        match self {
            Band::Within(lo, hi) => (lo..hi).contains(&v),
            Band::Above(x) => v > x,
            Band::Below(x) => v < x,
        }
    }

    fn show(self, unit: Unit) -> String {
        match self {
            Within(lo, hi) => format!("{}–{}", unit.show(lo), unit.show(hi)),
            Above(x) => format!("> {}", unit.show(x)),
            Below(x) => format!("< {}", unit.show(x)),
        }
    }
}

/// One claim of the paper and how this reproduction checks it.
#[derive(Clone, Copy)]
pub struct Claim {
    /// Stable identifier.
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub figure: &'static str,
    /// What is compared.
    pub what: &'static str,
    /// The paper's value, in `unit`; `None` when the paper states only
    /// an ordering.
    pub paper: Option<f64>,
    /// How the values are written.
    pub unit: Unit,
    /// Measures the claim on the reproduced results.
    pub measure: fn(&Evaluation) -> f64,
    /// The band the measured value must fall in.
    pub band: Band,
    /// Why the band is where it is.
    pub why: &'static str,
}

impl Claim {
    /// The measured value and whether it lies in the band.
    pub fn check(&self, e: &Evaluation) -> (f64, bool) {
        let v = (self.measure)(e);
        (v, self.band.holds(v))
    }
}

use Band::{Above, Below, Within};
use SchedulerKind::{BareMetal, Interleaving};
use SystemKind::{
    DramLess, DramLessFirmware, Hetero, Heterodirect, Ideal, IntegratedMlc, IntegratedSlc,
    IntegratedTlc, PageBuffer,
};
use Unit::{Share, Times};

/// Scaled footprints, caches and pages: a bandwidth band asks for the
/// paper's winner and rough factor, not its exact value.
const SCALED: &str = "footprints, caches and pages are scaled ~10³× down; \
                      the band asks for the winner and a rough factor";

/// Every paper number this reproduction checks.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    Claim { id: "dl-vs-hetero-bw", figure: "Fig. 15", what: "DRAM-less vs Hetero bandwidth",
        paper: Some(1.93), unit: Times, measure: |e| e.bw(DramLess, Hetero),
        band: Within(1.4, 3.0), why: SCALED },
    Claim { id: "dl-vs-heterodirect-bw", figure: "Fig. 15",
        what: "DRAM-less vs Heterodirect (P2P DMA) bandwidth",
        paper: Some(1.47), unit: Times, measure: |e| e.bw(DramLess, Heterodirect),
        band: Within(1.2, 2.2), why: SCALED },
    Claim { id: "dl-vs-firmware-bw", figure: "Fig. 15",
        what: "DRAM-less vs DRAM-less (firmware) bandwidth",
        paper: Some(1.25), unit: Times, measure: |e| e.bw(DramLess, DramLessFirmware),
        band: Within(1.1, 1.6),
        why: "the firmware handler's cost is a modeled constant, not measured on the \
              authors' board" },
    Claim { id: "dl-vs-page-buffer-bw", figure: "Fig. 15",
        what: "DRAM-less vs PAGE-buffer (best alternative) bandwidth",
        paper: Some(1.64), unit: Times, measure: |e| e.bw(DramLess, PageBuffer),
        band: Within(1.3, 2.5), why: SCALED },
    Claim { id: "heterodirect-vs-hetero-bw", figure: "Fig. 15",
        what: "Heterodirect vs Hetero bandwidth",
        paper: Some(1.25), unit: Times, measure: |e| e.bw(Heterodirect, Hetero),
        band: Within(1.05, 1.8),
        why: "only the host-stack share differs, and it grows with the scaled page count" },
    Claim { id: "page-buffer-vs-slc-bw", figure: "Fig. 15",
        what: "PAGE-buffer vs Integrated-SLC bandwidth",
        paper: Some(1.78), unit: Times, measure: |e| e.bw(PageBuffer, IntegratedSlc),
        band: Within(1.3, 2.5), why: SCALED },
    Claim { id: "slc-vs-mlc-bw", figure: "Fig. 15", what: "Integrated-SLC vs Integrated-MLC bandwidth",
        paper: None, unit: Times, measure: |e| e.bw(IntegratedSlc, IntegratedMlc),
        band: Above(1.0), why: "flash tiers order by cell speed" },
    Claim { id: "mlc-vs-tlc-bw", figure: "Fig. 15", what: "Integrated-MLC vs Integrated-TLC bandwidth",
        paper: None, unit: Times, measure: |e| e.bw(IntegratedMlc, IntegratedTlc),
        band: Above(1.0), why: "flash tiers order by cell speed" },
    Claim { id: "dl-energy-vs-heterodirect", figure: "Fig. 17",
        what: "DRAM-less energy, share of Heterodirect's",
        paper: Some(0.19), unit: Share, measure: |e| e.energy(DramLess, Heterodirect),
        band: Below(0.45),
        why: "static power (SSD active, platform idle, DRAM refresh) is modeled coarser than a \
              measured board" },
    Claim { id: "dl-least-energy", figure: "Fig. 17",
        what: "least energy of another evaluated system, relative to DRAM-less",
        paper: None, unit: Times,
        measure: |e| {
            let others = SystemKind::EVALUATED.into_iter().filter(|&k| k != DramLess);
            others.map(|k| e.energy(k, DramLess)).fold(f64::INFINITY, f64::min)
        },
        band: Above(1.0), why: "DRAM-less must be the most frugal of the eleven designs" },
    Claim { id: "hetero-vs-ideal-bw", figure: "Fig. 1",
        what: "Hetero bandwidth, share of the ideal system's",
        paper: Some(0.26), unit: Share, measure: |e| e.bw(Hetero, Ideal),
        band: Below(0.35),
        why: "compute-light scaled traces make the ideal system relatively faster than the \
              authors'" },
    Claim { id: "hetero-energy-vs-ideal", figure: "Fig. 1", what: "Hetero energy vs the ideal system's",
        paper: Some(9.0), unit: Times, measure: |e| e.energy(Hetero, Ideal),
        band: Above(4.0), why: "the same compute-light traces inflate the ratio" },
    Claim { id: "firmware-never-wins", figure: "Fig. 7",
        what: "best per-kernel firmware / oracle bandwidth",
        paper: None, unit: Times, measure: |e| e.firmware_retention().fold(0.0, f64::max),
        band: Below(1.02), why: "2 % slack for kernels the firmware path barely touches" },
    Claim { id: "firmware-worst-retention", figure: "Fig. 7",
        what: "worst per-kernel firmware / oracle bandwidth",
        paper: Some(0.20), unit: Share, measure: |e| e.firmware_retention().fold(1.0, f64::min),
        band: Below(0.75),
        why: "asks for at least 25 % degradation; smaller caches compress the paper's 80 %" },
    Claim { id: "interleaving-hides-latency", figure: "§V-A",
        what: "read latency interleaving hides on a 128 KiB stream",
        paper: Some(0.40), unit: Share,
        measure: |e| 1.0 - e.ops.stream(Interleaving) / e.ops.stream(BareMetal),
        band: Above(0.30), why: "a partition-striped stream, not the authors' microbenchmark" },
    Claim { id: "selective-erase-write-cut", figure: "§V-A",
        what: "write latency selective erasing cuts (SET-only vs overwrite)",
        paper: Some(0.44), unit: Share,
        measure: |e| 1.0 - e.ops.program_set.as_ns_f64() / e.ops.program_overwrite.as_ns_f64(),
        band: Within(0.40, 0.50), why: "Table II's 10 µs SET and 18 µs overwrite fix it" },
];

/// The comment line before the generated claims table in EXPERIMENTS.md.
pub const CLAIMS_BEGIN: &str = "<!-- BEGIN claims.md: generated by `dramless-sim reproduce` \
                                from crates/dramless/src/paper.rs; do not edit -->\n";
/// The comment line after it.
pub const CLAIMS_END: &str = "<!-- END claims.md -->";

/// The claims table as markdown: one row per [`CLAIMS`] entry.
fn claims_markdown(e: &Evaluation) -> String {
    let mut md = String::from(
        "| Id | Figure | Claim | Paper | Measured | Band | Holds | Why this band |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for c in CLAIMS {
        let (v, holds) = c.check(e);
        md.push_str(&format!(
            "| `{}` | {} | {} | {} | **{}** | {} | {} | {} |\n",
            c.id,
            c.figure,
            c.what,
            c.paper.map_or("ordering".to_string(), |p| c.unit.show(p)),
            c.unit.show(v),
            c.band.show(c.unit),
            if holds { "✓" } else { "✗" },
            c.why
        ));
    }
    md
}

/// Runs the whole evaluation on `pool` and renders it. Returns each
/// output file's name and contents, `claims.md` last, and the ids of the
/// claims outside their band. The bytes depend on nothing but the model,
/// so two runs at any thread count agree.
pub fn reproduce(pool: &Pool) -> (Vec<(&'static str, String)>, Vec<&'static str>) {
    let e = Evaluation::run(pool);
    let files: [(&str, Vec<Table>); 15] = [
        ("fig01.json", vec![fig01(&e)]),
        ("fig07.json", vec![fig07(&e)]),
        ("fig13.json", vec![fig13(pool)]),
        ("fig15.json", vec![fig15(&e)]),
        ("fig16.json", vec![fig16(&e)]),
        ("fig17.json", vec![fig17(&e)]),
        ("fig18.json", ipc_series(&e, Kernel::Gemver)),
        ("fig19.json", ipc_series(&e, Kernel::Doitg)),
        ("fig20.json", power_series(&e, Kernel::Gemver)),
        ("fig21.json", power_series(&e, Kernel::Doitg)),
        ("table1.json", vec![table1()]),
        ("table2.json", vec![table2()]),
        ("table3.json", vec![table3()]),
        ("sec5a.json", vec![sec5a(&e.ops)]),
        ("ablation.json", ablation(&e)),
    ];
    let mut out: Vec<(&str, String)> = files
        .into_iter()
        .map(|(name, tables)| (name, tables.to_json_pretty() + "\n"))
        .collect();
    out.push(("claims.md", claims_markdown(&e)));
    let missed = CLAIMS.iter().filter(|c| !c.check(&e).1).map(|c| c.id);
    (out, missed.collect())
}

fn fig01(e: &Evaluation) -> Table {
    let mut t = Table::new(
        "Figure 1: Hetero against the ideal in-memory system",
        "kernel|bandwidth vs ideal|energy (mJ)|energy vs ideal",
    );
    for k in Kernel::ALL {
        let (h, i) = (e.cell(Hetero, k), e.cell(Ideal, k));
        let energy = h.total_energy().as_j() / i.total_energy().as_j();
        let bw = h.bandwidth() / i.bandwidth();
        t.push_nums(k.label(), [bw, h.total_energy().as_mj(), energy]);
    }
    let bw = e.bw(Hetero, Ideal).to_json();
    t.push(
        "geomean",
        vec![bw, Json::Null, e.energy(Hetero, Ideal).to_json()],
    );
    t
}

fn fig07(e: &Evaluation) -> Table {
    let mut t = Table::new("Figure 7: firmware vs oracle", "kernel|bandwidth vs oracle");
    for (k, r) in Kernel::ALL.into_iter().zip(e.firmware_retention()) {
        t.push_nums(k.label(), [r]);
    }
    t
}

/// The Fig. 13 grid: DRAM-less under each scheduler, in one sweep.
fn fig13(pool: &Pool) -> Table {
    let params = SystemParams::default();
    let systems: Vec<(SystemId, SystemSpec)> = SchedulerKind::ALL
        .iter()
        .map(|s| {
            let spec = SystemSpec {
                control: Control::HardwareAutomated { scheduler: *s },
                ..DramLess.spec()
            };
            (SystemId::Custom(s.label().to_string()), spec)
        })
        .collect();
    let suite = Workload::suite(Scale::paper());
    let (r, _) = sweep_systems_on(pool, &systems, &suite, &params)
        .expect("DRAM-less composes with every scheduler");
    let mut t = Table::new(
        "Figure 13: DRAM-less bandwidth per PRAM scheduler, over Bare-metal",
        "kernel|Bare-metal (MB/s)|Interleaving|Selective-erasing|Final|write ratio",
    );
    let mut gains = [0.0f64; 3];
    for w in &suite {
        let bw: Vec<f64> = SchedulerKind::ALL
            .iter()
            .map(|s| r.get_named(s.label(), w.kernel).expect("swept").bandwidth())
            .collect();
        for (g, b) in gains.iter_mut().zip(&bw[1..]) {
            *g += (b / bw[0]).ln();
        }
        let write_ratio = w.build_cached(params.agents).character.write_ratio;
        let rel = bw[1..].iter().map(|b| b / bw[0]);
        t.push_nums(
            w.kernel.label(),
            [bw[0] / 1e6].into_iter().chain(rel).chain([write_ratio]),
        );
    }
    let n = suite.len() as f64;
    let geo = gains.map(|g| (g / n).exp().to_json());
    t.push("geomean", [&[Json::Null][..], &geo, &[Json::Null]].concat());
    t
}

fn fig15(e: &Evaluation) -> Table {
    let columns = SystemKind::EVALUATED.map(SystemKind::label).join("|");
    let title = "Figure 15: bandwidth normalized to Hetero";
    let mut t = Table::new(title, &format!("kernel|{columns}"));
    for k in Kernel::ALL {
        let hetero = e.cell(Hetero, k).bandwidth();
        let row = SystemKind::EVALUATED.map(|s| e.cell(s, k).bandwidth() / hetero);
        t.push_nums(k.label(), row);
    }
    t.push_nums("geomean", SystemKind::EVALUATED.map(|s| e.bw(s, Hetero)));
    t
}

/// One row per evaluated system: `row` of each of its cells, averaged
/// over the kernels.
fn mean_per_system(e: &Evaluation, t: &mut Table, row: impl Fn(&RunOutcome) -> Vec<f64>) {
    for s in SystemKind::EVALUATED {
        let rows = Kernel::ALL.map(|k| row(e.cell(s, k)));
        let mean = (0..rows[0].len()).map(|i| rows.iter().map(|r| r[i]).sum::<f64>());
        t.push_nums(s.label(), mean.map(|v| v / rows.len() as f64));
    }
}

fn fig16(e: &Evaluation) -> Table {
    let mut t = Table::new(
        "Figure 16: execution-time decomposition, suite-average fractions",
        "system|offload|stage-in|compute|memory|stage-out|avg total (ms)",
    );
    mean_per_system(e, &mut t, |o| {
        let total = o.total_time.as_ms_f64();
        o.breakdown.fractions().into_iter().chain([total]).collect()
    });
    t
}

fn fig17(e: &Evaluation) -> Table {
    const GROUPS: [(&str, &[&str]); 7] = [
        ("PE", &["pe."]),
        ("host", &["host."]),
        ("NVM", &["pram.", "flash.", "nor.", "pram-ssd."]),
        ("DRAM", &["dram."]),
        ("PCIe", &["pcie."]),
        ("ctrl/fw", &["ctrl.", "fw.", "ssd."]),
        ("idle", &["platform."]),
    ];
    let columns = format!("system|{}|total", GROUPS.map(|g| g.0).join("|"));
    let mut t = Table::new(
        "Figure 17: energy by component, suite average (mJ)",
        &columns,
    );
    mean_per_system(e, &mut t, |o| {
        let mj = |prefix: &&str| o.energy.energy_of_prefix(prefix).as_mj();
        let groups = GROUPS
            .iter()
            .map(|(_, prefixes)| prefixes.iter().map(mj).sum());
        groups.chain([o.total_energy().as_mj()]).collect()
    });
    t
}

/// About 16 points of `series`, bucket values averaged and divided by
/// `per`: rows of `(t in ns, value)` labelled `system`.
fn sample(t: &mut Table, system: SystemKind, series: &TimeSeries, per: f64) {
    let dense = series.dense(series.horizon());
    let stride = (dense.len() / 16).max(1);
    for (i, chunk) in dense.chunks(stride).enumerate() {
        let at = series.bucket_width() * (i as u64 * stride as u64);
        let v = chunk.iter().sum::<f64>() / chunk.len() as f64 / per;
        t.push_nums(system.label(), [at.as_ns_f64(), v]);
    }
}

/// Figs. 18–19: total IPC over time, from the grid's cells.
fn ipc_series(e: &Evaluation, kernel: Kernel) -> Vec<Table> {
    let name = kernel.label();
    let mut series = Table::new(&format!("total IPC over time, {name}"), "system|t (ns)|IPC");
    let mut avg = Table::new(&format!("average total IPC, {name}"), "system|IPC");
    for s in [
        IntegratedSlc,
        IntegratedTlc,
        PageBuffer,
        SystemKind::NorIntf,
        DramLessFirmware,
        DramLess,
    ] {
        let ipc = &e.cell(s, kernel).exec.ipc_series;
        // IPC per bucket = instructions / bucket cycles (1 GHz: ns).
        sample(&mut series, s, ipc, ipc.bucket_width().as_ns_f64());
        avg.push_nums(s.label(), [e.cell(s, kernel).total_ipc()]);
    }
    vec![series, avg]
}

/// Figs. 20–21: PE power over time, completion and energy.
fn power_series(e: &Evaluation, kernel: Kernel) -> Vec<Table> {
    let name = kernel.label();
    let mut series = Table::new(&format!("PE power over time, {name}"), "system|t (ns)|W");
    let mut totals = Table::new(
        &format!("completion and total energy, {name}"),
        "system|completion (ms)|energy (mJ)|energy vs DRAM-less",
    );
    let dl = e.cell(DramLess, kernel).total_energy().as_j();
    for s in [IntegratedSlc, PageBuffer, SystemKind::NorIntf, DramLess] {
        let out = e.cell(s, kernel);
        let power = &out.exec.power_series;
        sample(&mut series, s, power, power.bucket_width().as_secs_f64());
        let (ms, energy) = (out.exec.total_time.as_ms_f64(), out.total_energy());
        totals.push_nums(s.label(), [ms, energy.as_mj(), energy.as_j() / dl]);
    }
    vec![series, totals]
}

fn table1() -> Table {
    let mut t = Table::new(
        "Table I: configuration of the evaluated systems",
        "system|heterogeneous|internal DRAM|NVM read (us)|NVM write (us)|NVM erase (us)",
    );
    let us = |p: Picos| p.as_us_f64().to_json();
    let pram = PramTiming::table2();
    let set = pram.t_program_set.as_us_f64();
    let pram_write = format!("{set}/{}", pram.t_program_overwrite().as_us_f64());
    let na = || "N/A".to_json();
    for s in SystemKind::TABLE1 {
        let flash = |cell| {
            let f = FlashTiming::table1(cell);
            [us(f.t_read), us(f.t_program), us(f.t_erase)]
        };
        let nvm = match s {
            Hetero | Heterodirect | IntegratedMlc => flash(CellKind::Mlc),
            IntegratedSlc => flash(CellKind::Slc),
            IntegratedTlc => flash(CellKind::Tlc),
            SystemKind::HeteroPram | SystemKind::HeterodirectPram => {
                let read = PramSsdParams::default().t_read;
                [us(read), pram_write.to_json(), na()]
            }
            PageBuffer | DramLess => [us(pram.nominal_read()), pram_write.to_json(), na()],
            SystemKind::NorIntf => {
                let nor = NorPramParams::default();
                [us(nor.t_access), us(nor.t_program), na()]
            }
            DramLessFirmware | Ideal => unreachable!("not in Table I"),
        };
        let yes = |b: bool| if b { "yes" } else { "no" }.to_json();
        let flags = [yes(s.is_heterogeneous()), yes(s.has_internal_dram())];
        t.push(s.label(), [&flags[..], &nvm].concat());
    }
    t
}

fn table2() -> Table {
    let t = PramTiming::table2();
    let (map, overwrite) = (AddressMap::paper(), t.t_program_overwrite());
    let ns = Picos::as_ns_f64;
    let mut table = Table::new(
        "Table II: characterized PRAM parameters, from the model",
        "parameter|value",
    );
    let rows = [
        ("RL (cycles)", t.rl_cycles as f64),
        ("WL (cycles)", t.wl_cycles as f64),
        ("tRP (cycles)", t.trp_cycles as f64),
        ("tCK (ns)", ns(t.tck())),
        ("tRCD (ns)", ns(t.trcd)),
        ("tWRA (ns)", ns(t.twra)),
        ("tDQSCK min (ns)", ns(t.tdqsck_min)),
        ("tDQSCK max (ns)", ns(t.tdqsck_max)),
        ("tDQSS min (ns)", ns(t.tdqss_min)),
        ("tDQSS max (ns)", ns(t.tdqss_max)),
        ("tBURST BL4 (ns)", ns(t.tburst(BurstLen::Bl4))),
        ("tBURST BL8 (ns)", ns(t.tburst(BurstLen::Bl8))),
        ("tBURST BL16 (ns)", ns(t.tburst(BurstLen::Bl16))),
        ("RABs", t.rab_count as f64),
        ("RDBs (32 B each)", t.rdb_count as f64),
        ("program SET (us)", t.t_program_set.as_us_f64()),
        ("program overwrite (us)", overwrite.as_us_f64()),
        ("erase (ms)", t.t_erase.as_ms_f64()),
        ("channels", map.channels as f64),
        ("packages per channel", map.modules_per_channel as f64),
        ("partitions", pram::PramGeometry::paper().partitions as f64),
        ("nominal three-phase read (ns)", ns(t.nominal_read())),
        ("erase / overwrite", (t.t_erase / overwrite) as f64),
    ];
    for (name, v) in rows {
        table.push_nums(name, [v]);
    }
    table
}

fn table3() -> Table {
    let mut t = Table::new(
        "Table III: workload characteristics, measured from the kernels",
        "kernel|n|footprint (KB)|input (KB)|output (KB)|write ratio|instructions|class",
    );
    for w in Workload::suite(Scale::paper()) {
        let c = w.build_cached(SystemParams::default().agents).character;
        let class = match w.kernel {
            k if k.is_read_intensive() => "read",
            k if k.is_write_intensive() => "write",
            _ => "mixed",
        };
        let kb = |b: u64| (b / 1024).to_json();
        let mut values = vec![
            w.n.to_json(),
            kb(c.footprint),
            kb(c.bytes_in),
            kb(c.bytes_out),
        ];
        values.extend([c.write_ratio, c.instructions as f64].map(Json::F64));
        t.push(w.kernel.label(), [values, vec![class.to_json()]].concat());
    }
    t
}

fn sec5a(ops: &OpLatencies) -> Table {
    let mut t = Table::new("§V-A: controller operation latencies", "operation|ns");
    t.push_nums("three-phase word read", [ops.word_read.as_ns_f64()]);
    for (s, lat) in SchedulerKind::ALL.iter().zip(ops.stream_read) {
        let label = format!("512 B read in a 128 KiB stream, {}", s.label());
        t.push_nums(label, [lat.as_ns_f64()]);
    }
    t.push_nums("program, SET only", [ops.program_set.as_ns_f64()]);
    t.push_nums("program, overwrite", [ops.program_overwrite.as_ns_f64()]);
    t
}

/// The §VII extensions folded into the controller, measured at the
/// subsystem level, and the §VI DSP-intrinsics port.
fn ablation(e: &Evaluation) -> Vec<Table> {
    let mut wear = Table::new(
        "start-gap wear leveling: 1024 writes to 8 hot words",
        "psi|stream time (us)|gap moves|overhead",
    );
    let run_wear = |interval: Option<u64>| {
        let cfg = SubsystemConfig {
            wear_leveling: interval,
            ..SubsystemConfig::paper(SchedulerKind::Final, 17)
        };
        let mut c = PramController::new(cfg);
        let mut t = Picos::ZERO;
        for i in 0..1024u64 {
            t = c.write(t, (i % 8) * 32, 32).end + Picos::from_us(2);
        }
        // Wait for background relocations to drain before timing the tail.
        let done = c.read(t + Picos::from_ms(2), 0, 32).end;
        (done.as_us_f64(), c.stats().gap_moves as f64)
    };
    let (base, _) = run_wear(None);
    for interval in [512u64, 128, 32, 8] {
        let (t, moves) = run_wear(Some(interval));
        wear.push_nums(interval.to_string(), [t, moves, t / base - 1.0]);
    }
    wear.push_nums("off", [base, 0.0, 0.0]);

    let mut pausing = Table::new(
        "write pausing: mean read latency with a program in flight on every module",
        "write pausing|mean read latency (ns)",
    );
    for on in [false, true] {
        let cfg = SubsystemConfig {
            write_pausing: on,
            ..SubsystemConfig::paper(SchedulerKind::Interleaving, 5)
        };
        let mut c = PramController::new(cfg);
        for i in 0..32u64 {
            c.write(Picos::ZERO, i * 32, 32);
        }
        let t0 = Picos::from_us(2);
        let lat = (0..32u64).map(|i| c.read(t0, i * 32, 32).latency_from(t0).as_ns_f64());
        pausing.push_nums(if on { "on" } else { "off" }, [lat.sum::<f64>() / 32.0]);
    }

    let mut erase = Table::new("partition erase vs selective erase", "reclaim|blocked (us)");
    let mut m = PramModule::new(PramTiming::table2(), 3);
    // Program a word, then reclaim it both ways.
    use pram::overlay::regs;
    let row = RowId::new(0, 0);
    let addr = m.geometry().encode(row);
    let t = m.write_overlay(Picos::ZERO, regs::COMMAND_CODE, &[0xE9]);
    let t = m.write_overlay(t.end, regs::DATA_ADDRESS, &addr.to_le_bytes());
    let t = m.write_overlay(t.end, regs::PROGRAM_BUFFER, &[9u8; 32]);
    let prog = m.execute_program(t.end);
    let whole = m.clone().erase_partition(prog.end, PartitionId(0));
    let selective = m.pre_erase(prog.end, row);
    erase.push_nums("partition erase", [whole.duration().as_us_f64()]);
    erase.push_nums("selective erase", [selective.duration().as_us_f64()]);

    // Scalarizing the fused multiply/accumulate blocks: compute-bound
    // kernels feel it, memory-bound ones do not.
    let mut dsp = Table::new(
        "DSP intrinsics: DRAM-less time, optimized vs scalarized kernels",
        "kernel|optimized (us)|scalarized (us)|intrinsics save",
    );
    let params = SystemParams::default();
    for kernel in [Kernel::Doitg, Kernel::Gemver, Kernel::Trisolv] {
        let opt = e.cell(DramLess, kernel).total_time.as_us_f64();
        // The cached build is shared, so scalarize a copy.
        let mut built = (*Workload::of(kernel, Scale::paper()).build_cached(params.agents)).clone();
        built.traces = built.traces.iter().map(|t| t.scalarized()).collect();
        let scalar = simulate_dramless_scheduler(SchedulerKind::Final, &built, &params);
        let scalar = scalar.total_time.as_us_f64();
        dsp.push_nums(kernel.label(), [opt, scalar, 1.0 - opt / scalar]);
    }
    vec![wear, pausing, erase, dsp]
}
