//! Cross-crate integration tests of the PRAM stack: device ← controller
//! ← schedulers, including the paper's protocol-level claims.

use dramless::paper::{Evaluation, OpLatencies, CLAIMS};
use dramless::SuiteResult;
use pram::cell::WORD_BYTES;
use pram::{BufferId, PramModule, PramTiming, RowId};
use pram_ctrl::{
    FirmwareController, FirmwareParams, PramController, SchedulerKind, SubsystemConfig,
};
use sim_core::{MemoryBackend, Picos};

fn controller(s: SchedulerKind) -> PramController {
    PramController::new(SubsystemConfig::paper(s, 99))
}

/// Asserts the §V-A claims row `id` of `dramless::paper::CLAIMS`. Those
/// rows read only the controller operations, so the grid stays empty.
fn assert_controller_claim(id: &str) {
    let claim = CLAIMS.iter().find(|c| c.id == id).expect("a claims row");
    assert_eq!(claim.figure, "§V-A", "{id} is not a controller claim");
    let e = Evaluation {
        grid: SuiteResult::default(),
        ops: OpLatencies::measure(),
    };
    let (v, holds) = claim.check(&e);
    assert!(holds, "{id} = {v:.3}, band {:?}", claim.band);
}

#[test]
fn data_survives_every_scheduler() {
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 255 + 1) as u8).collect();
    for s in SchedulerKind::ALL {
        let mut c = controller(s);
        let w = c.write_bytes(Picos::ZERO, 8192, &payload);
        let (_, back) = c.read_bytes(w.end + Picos::from_ms(1), 8192, 4096);
        assert_eq!(back, payload, "{s} corrupted data");
    }
}

#[test]
fn data_survives_overwrites_with_selective_erasing() {
    // The selective-erase fast path must never be visible functionally.
    let mut c = controller(SchedulerKind::Final);
    let a: Vec<u8> = vec![0x11; 2048];
    let b: Vec<u8> = vec![0x22; 2048];
    let w1 = c.write_bytes(Picos::ZERO, 0, &a);
    c.announce_overwrites(w1.end, &(0..2048u64).step_by(32).collect::<Vec<_>>());
    // Long idle window, then overwrite.
    let t = w1.end + Picos::from_ms(5);
    let w2 = c.write_bytes(t, 0, &b);
    let (_, back) = c.read_bytes(w2.end + Picos::from_ms(1), 0, 2048);
    assert_eq!(back, b);
    assert!(c.stats().preerase_hits > 0, "pre-erase should have fired");
}

#[test]
fn interleaving_latency_hiding_hits_paper_range() {
    // §I: interleaving hides memory access latency behind transfer time
    // (~40 %), measured per request on a partition-striped stream.
    assert_controller_claim("interleaving-hides-latency");
}

#[test]
fn selective_erasing_write_latency_reduction_matches_abstract() {
    // §I: selective erasing shortens PRAM write latency by ~44 %
    // (18 µs overwrite → 10 µs SET-only).
    assert_controller_claim("selective-erase-write-cut");
}

#[test]
fn firmware_controller_serializes_under_parallel_load() {
    // Fig. 7: data-intensive request streams choke on firmware. Issue a
    // burst of concurrent requests and compare against the hardware path.
    let inner = controller(SchedulerKind::Final);
    let mut fw = FirmwareController::new(inner, FirmwareParams::default());
    let mut hw = controller(SchedulerKind::Final);
    let mut fw_end = Picos::ZERO;
    let mut hw_end = Picos::ZERO;
    for i in 0..64u64 {
        fw_end = fw_end.max(fw.read(Picos::ZERO, i * 512, 512).end);
        hw_end = hw_end.max(hw.read(Picos::ZERO, i * 512, 512).end);
    }
    assert!(
        fw_end.as_ps() as f64 > hw_end.as_ps() as f64 * 1.5,
        "firmware {fw_end} vs hardware {hw_end}"
    );
}

#[test]
fn phase_skipping_reduces_stream_latency() {
    // RAB/RDB awareness (§III-B) must show up as measured skips and as
    // cheaper repeat accesses.
    let mut c = controller(SchedulerKind::Final);
    let first = c.read(Picos::ZERO, 0, 512);
    // Same words again: data still in RDBs → activate skipped.
    let second = c.read(first.end, 0, 512);
    assert!(c.stats().activate_skips >= 16);
    assert!(second.end - first.end < first.end - Picos::ZERO);
}

#[test]
fn erase_blocks_partition_but_not_others() {
    let mut m = PramModule::new(PramTiming::table2(), 5);
    let e = m.erase_partition(Picos::ZERO, pram::PartitionId(0));
    assert_eq!(e.duration(), Picos::from_ms(60));
    // Partition 1 is untouched; its activate proceeds immediately.
    let lb = m.geometry().lower_row_bits;
    let row = RowId::new(1, 0);
    m.pre_active(Picos::from_us(1), BufferId::B1, row.upper(lb));
    let act = m.activate(Picos::from_us(1), BufferId::B1, row.lower(lb));
    assert!(act.start < Picos::from_us(2));
}

#[test]
fn program_buffer_write_path_round_trips_through_overlay_registers() {
    // Drive the §V-B register sequence by hand against the device and
    // confirm the controller-visible result matches.
    let mut m = PramModule::new(PramTiming::table2(), 1);
    let row = RowId::new(2, 99);
    let addr = m.geometry().encode(row);
    let word = [0xC3u8; WORD_BYTES];
    use pram::overlay::regs;
    let t1 = m.write_overlay(Picos::ZERO, regs::COMMAND_CODE, &[0xE9]);
    let t2 = m.write_overlay(t1.end, regs::DATA_ADDRESS, &addr.to_le_bytes());
    let t3 = m.write_overlay(t2.end, regs::MULTI_PURPOSE, &[32]);
    let t4 = m.write_overlay(t3.end, regs::PROGRAM_BUFFER, &word);
    let done = m.execute_program(t4.end);
    assert_eq!(m.peek(row), word);
    assert!(done.duration() >= Picos::from_us(10));
}

#[test]
fn capacity_and_geometry_match_table_2() {
    let c = controller(SchedulerKind::Final);
    // 2 channels × 16 packages × 16 partitions (Table II).
    assert_eq!(c.config().map.channels, 2);
    assert_eq!(c.config().map.modules_per_channel, 16);
    assert_eq!(c.config().timing.rab_count, 4);
    assert_eq!(c.capacity_bytes(), 32u64 << 30);
}

#[test]
fn deterministic_across_identical_runs() {
    let run = |seed: u64| {
        let mut c = PramController::new(SubsystemConfig::paper(SchedulerKind::Final, seed));
        let mut t = Picos::ZERO;
        for i in 0..64u64 {
            t = c.write(t, i * 512, 512).end;
            t = c.read(t, i * 512, 512).end;
        }
        t
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds should jitter strobes");
}

/// The Figure 12 timing diagram, step by step: two requests (req-0,
/// req-1) to different partitions of the same chip; while req-1's
/// pre-active/activate (tRP + tRCD) proceed, req-0's data bursts out —
/// the transfers become invisible behind the partition access time.
#[test]
fn figure12_interleaving_timing_diagram() {
    use pram::{BufferId, BurstLen, PramModule, PramTiming, RowId};
    let timing = PramTiming::table2();
    let mut m = PramModule::new(timing, 12);
    let lb = m.geometry().lower_row_bits;
    let req0 = RowId::new(0, 100);
    let req1 = RowId::new(1, 200);

    // (1) req-0's pre-active + activate were initiated just before req-1's.
    let pre0 = m.pre_active(Picos::ZERO, BufferId::B0, req0.upper(lb));
    let act0 = m.activate(pre0.end, BufferId::B0, req0.lower(lb));
    let pre1 = m.pre_active(pre0.end, BufferId::B1, req1.upper(lb));
    let act1 = m.activate(pre1.end, BufferId::B1, req1.lower(lb));

    // (2)+(4): req-1's tRCD proceeds on partition 1 while…
    // (3): …req-0's burst (RL + tDQSS + tBURST) transfers in tandem.
    let (burst0, _) = m.read_burst(act0.end, Picos::ZERO, BufferId::B0, 0, BurstLen::Bl16);
    // The burst overlaps req-1's array access rather than queueing
    // behind it.
    assert!(
        burst0.start < act1.end,
        "req-0's transfer must overlap req-1's activate window: \
         burst0 starts {} vs act1 ends {}",
        burst0.start,
        act1.end
    );

    // (5) once the bus frees, req-1's burst follows immediately.
    let (burst1, _) = m.read_burst(
        act1.end.max(burst0.end),
        burst0.end,
        BufferId::B1,
        0,
        BurstLen::Bl16,
    );
    assert!(burst1.end > burst0.end);

    // Net effect: two complete three-phase reads in much less than two
    // serial reads (the §V-A "hide the memory access latency behind the
    // data transfer time" claim at protocol granularity).
    let serial = timing.nominal_read() * 2;
    assert!(
        burst1.end.as_ps() as f64 <= serial.as_ps() as f64 * 0.80,
        "interleaved pair {} should be well under 2 serial reads {}",
        burst1.end,
        serial
    );
}

/// §III-B prefetch: the controller's 512-bytes-per-channel requests leave
/// data resident across all RDBs, so a re-read of the same region skips
/// pre-active AND activate on every word.
#[test]
fn rdb_prefetch_effect_on_reread() {
    let mut c = controller(SchedulerKind::Final);
    c.read(Picos::ZERO, 0, 512);
    let before = *c.stats();
    c.read(Picos::from_ms(1), 0, 512);
    let after = *c.stats();
    assert_eq!(
        after.activate_skips - before.activate_skips,
        16,
        "all 16 words should be served straight from the RDBs"
    );
}
