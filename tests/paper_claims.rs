//! The paper's claims, asserted. Every row of `dramless::paper::CLAIMS`
//! — its paper value, how it is measured, its band and why — must fall
//! in its band on the reproduced results; the three claims tests below
//! split the rows by figure and together assert every one.
//! EXPERIMENTS.md's headline table is the same rows, rendered by
//! `dramless-sim reproduce`.
//!
//! The grid is the expensive part, so the tests share one evaluation.

use dramless::paper::{Claim, Evaluation, CLAIMS};
use dramless::system::simulate_dramless_scheduler;
use dramless::SystemParams;
use pram_ctrl::SchedulerKind;
use std::sync::OnceLock;
use workloads::{Scale, Workload};

/// Asserts every claim `pick` selects, naming each one outside its band.
fn assert_claims(pick: impl Fn(&Claim) -> bool) {
    static EVALUATION: OnceLock<Evaluation> = OnceLock::new();
    let e = EVALUATION.get_or_init(|| Evaluation::run(util::pool::global()));
    let picked: Vec<&Claim> = CLAIMS.iter().filter(|c| pick(c)).collect();
    assert!(!picked.is_empty(), "no claim selected");
    let missed: Vec<String> = picked
        .iter()
        .filter_map(|c| {
            let (v, holds) = c.check(e);
            (!holds).then(|| format!("{} = {v:.3}, band {:?}", c.id, c.band))
        })
        .collect();
    assert!(missed.is_empty(), "claims outside their band: {missed:#?}");
}

#[test]
fn figure15_and_17_headline_ratios() {
    // Figs. 1, 15 and 17: bandwidth and energy over the grid.
    assert_claims(|c| !matches!(c.figure, "Fig. 7" | "§V-A"));
}

#[test]
fn figure7_firmware_degradation() {
    assert_claims(|c| c.figure == "Fig. 7");
}

#[test]
fn section5a_controller_claims() {
    // Interleaving's latency hiding and selective erasing's write cut.
    assert_claims(|c| c.figure == "§V-A");
}

#[test]
fn figure13_scheduler_ablation_shape() {
    let params = SystemParams::default();
    // Representative kernels: one per class (the full sweep is
    // `dramless-sim reproduce`'s fig13.json).
    let read_heavy = Workload::suite(Scale(0.6))
        .into_iter()
        .find(|w| w.kernel.label() == "trisolv")
        .expect("trisolv in suite");
    let write_heavy = Workload::suite(Scale(0.6))
        .into_iter()
        .find(|w| w.kernel.label() == "adi")
        .expect("adi in suite");

    let bw = |s: SchedulerKind, built: &workloads::suite::BuiltWorkload| {
        simulate_dramless_scheduler(s, built, &params).bandwidth()
    };

    let rh = read_heavy.build(params.agents);
    let wh = write_heavy.build(params.agents);

    // Interleaving lifts read-heavy workloads…
    let inter_gain = bw(SchedulerKind::Interleaving, &rh) / bw(SchedulerKind::BareMetal, &rh);
    assert!(inter_gain > 1.3, "interleaving on trisolv: {inter_gain:.2}");
    // …but gives almost nothing on the overwrite-bound ones (§V-A:
    // "adi, floyd and jaco1D have almost zero benefit").
    let inter_write = bw(SchedulerKind::Interleaving, &wh) / bw(SchedulerKind::BareMetal, &wh);
    assert!(inter_write < 1.3, "interleaving on adi: {inter_write:.2}");

    // Selective erasing is the mirror image.
    let sel_write = bw(SchedulerKind::SelectiveErasing, &wh) / bw(SchedulerKind::BareMetal, &wh);
    assert!(sel_write > 1.3, "selective erasing on adi: {sel_write:.2}");

    // Final dominates bare-metal on both classes and never loses to its
    // components.
    for built in [&rh, &wh] {
        let base = bw(SchedulerKind::BareMetal, built);
        let fin = bw(SchedulerKind::Final, built);
        assert!(fin > base, "Final must beat Bare-metal");
        let inter = bw(SchedulerKind::Interleaving, built);
        let sel = bw(SchedulerKind::SelectiveErasing, built);
        assert!(fin >= inter.max(sel) * 0.95, "Final ~combines both gains");
    }
}
