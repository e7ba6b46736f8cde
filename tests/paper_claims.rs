//! Quantitative regression tests against the paper's headline claims.
//!
//! These run the full 15-kernel suite across configurations and assert
//! the *shape* of the results: who wins and by roughly what factor.
//! Exact magnitudes differ from the paper (our substrate is a simulator,
//! not the authors' testbed); EXPERIMENTS.md records both sides.
//!
//! The suite sweep is the expensive part, so one `#[test]` does the run
//! and checks all claims.

use dramless::sweep::sweep;
use dramless::system::simulate_dramless_scheduler;
use dramless::{SystemKind, SystemParams};
use pram_ctrl::SchedulerKind;
use workloads::{Scale, Workload};

#[test]
fn figure15_and_17_headline_ratios() {
    let suite = Workload::suite(Scale(1.0));
    let params = SystemParams::default();
    let mut kinds = SystemKind::EVALUATED.to_vec();
    kinds.push(SystemKind::Ideal);
    let r = sweep(&kinds, &suite, &params);
    use SystemKind::*;

    // Abstract/§VI-A: DRAM-less ≈ +93% over Hetero (we accept 1.4×-3×).
    let dl_vs_h = r.mean_normalized_bandwidth(DramLess, Hetero);
    assert!((1.4..3.0).contains(&dl_vs_h), "DL vs Hetero = {dl_vs_h:.2}");

    // Abstract: +47% over the peer-to-peer DMA system (accept 1.2×-2.2×).
    let dl_vs_hd = r.mean_normalized_bandwidth(DramLess, Heterodirect);
    assert!(
        (1.2..2.2).contains(&dl_vs_hd),
        "DL vs Heterodirect = {dl_vs_hd:.2}"
    );

    // §VI-A: +25% over the firmware-managed variant (accept 1.1×-1.6×).
    let dl_vs_fw = r.mean_normalized_bandwidth(DramLess, DramLessFirmware);
    assert!(
        (1.1..1.6).contains(&dl_vs_fw),
        "DL vs firmware = {dl_vs_fw:.2}"
    );

    // §VI-A: ~64% better than PAGE-buffer's best (accept 1.3×-2.5×).
    let dl_vs_pb = r.mean_normalized_bandwidth(DramLess, PageBuffer);
    assert!(
        (1.3..2.5).contains(&dl_vs_pb),
        "DL vs PAGE-buffer = {dl_vs_pb:.2}"
    );

    // §VI-B: Heterodirect shortens Hetero's time (bandwidth up ~25%).
    let hd_vs_h = r.mean_normalized_bandwidth(Heterodirect, Hetero);
    assert!(
        (1.05..1.8).contains(&hd_vs_h),
        "HD vs Hetero = {hd_vs_h:.2}"
    );

    // §VI-A: PAGE-buffer ≈ +78% over Integrated-SLC (accept 1.3×-2.5×).
    let pb_vs_slc = r.mean_normalized_bandwidth(PageBuffer, IntegratedSlc);
    assert!(
        (1.3..2.5).contains(&pb_vs_slc),
        "PB vs SLC = {pb_vs_slc:.2}"
    );

    // Flash tiers order by cell speed.
    assert!(
        r.mean_normalized_bandwidth(IntegratedSlc, IntegratedMlc) > 1.0,
        "SLC must beat MLC"
    );
    assert!(
        r.mean_normalized_bandwidth(IntegratedMlc, IntegratedTlc) > 1.0,
        "MLC must beat TLC"
    );

    // Fig. 1: the ideal system dominates everything; heterogeneous
    // acceleration loses most of it (paper: -74%).
    let h_vs_ideal = r.mean_normalized_bandwidth(Hetero, Ideal);
    assert!(h_vs_ideal < 0.35, "Hetero vs Ideal = {h_vs_ideal:.2}");

    // Abstract: DRAM-less consumes a small fraction (paper 19%) of the
    // P2P system's energy (accept < 45%).
    let dl_e = r.mean_relative_energy(DramLess, Heterodirect);
    assert!(dl_e < 0.45, "DL energy vs Heterodirect = {dl_e:.2}");

    // Fig. 1: Hetero burns many times the ideal system's energy
    // (paper ~9×; accept > 4×).
    let h_e = r.mean_relative_energy(Hetero, Ideal);
    assert!(h_e > 4.0, "Hetero energy vs Ideal = {h_e:.1}");

    // Fig. 17 shape: DRAM-less is the most energy-frugal evaluated
    // design.
    for k in SystemKind::EVALUATED {
        if k == DramLess {
            continue;
        }
        let e = r.mean_relative_energy(k, DramLess);
        assert!(
            e > 1.0,
            "{k} should burn more energy than DRAM-less ({e:.2})"
        );
    }
}

#[test]
fn figure13_scheduler_ablation_shape() {
    let params = SystemParams::default();
    // Representative kernels: one per class (full sweep lives in the
    // bench harness).
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

#[test]
fn figure7_firmware_degradation() {
    // Fig. 7: traditional firmware degrades the system by up to 80%
    // vs an oracle (no-overhead) PRAM controller on data-intensive
    // workloads. Our oracle is the hardware-automated controller.
    let params = SystemParams::default();
    let suite = Workload::suite(Scale(1.0));
    let kinds = [SystemKind::DramLess, SystemKind::DramLessFirmware];
    let r = sweep(&kinds, &suite, &params);
    let mut worst: f64 = 1.0;
    for w in &suite {
        let fw = r
            .get(SystemKind::DramLessFirmware, w.kernel)
            .expect("fw outcome");
        let hw = r.get(SystemKind::DramLess, w.kernel).expect("hw outcome");
        let rel = fw.bandwidth() / hw.bandwidth();
        assert!(
            rel < 1.02,
            "{}: firmware should not win ({rel:.2})",
            w.kernel
        );
        worst = worst.min(rel);
    }
    // The worst data-intensive workload degrades substantially (paper:
    // up to 80%; we require at least 25%).
    assert!(worst < 0.75, "worst-case firmware retention {worst:.2}");
}
