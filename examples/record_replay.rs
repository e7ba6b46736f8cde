//! Deterministic record/replay: tape a run, resume it mid-cell.
//!
//! Records a faulted DRAM-less cell with a tight checkpoint cadence,
//! then (1) replays a window `[A..B)` of the backend-request stream:
//! the tape of recorded completions carries the accelerator to the
//! nearest checkpoint, whose backend image takes over from there,
//! (2) resumes mid-cell and runs to completion — proving the resumed
//! run lands on the exact report bytes of the straight run — and
//! (3) shows that a tampered checkpoint is rejected loudly instead of
//! replaying to a silently different answer.
//!
//! The same flows are available from the CLI:
//! `dramless-sim record --out run.json` /
//! `dramless-sim replay run.json --window A..B`.
//!
//! Run with: `cargo run --release -p dramless --example record_replay`

use dramless::replay::{self, ReplayError};
use dramless::{FaultPlan, SystemId, SystemKind, SystemParams};
use util::json::ToJson;
use workloads::{Kernel, Scale, Workload};

fn main() {
    let params = SystemParams::default();
    let w = Workload::of(Kernel::Gemver, Scale(0.25));
    let mut spec = SystemKind::DramLess.spec();
    spec.faults = Some(FaultPlan::seeded(7));

    // Record: run the cell once, taping every backend request's
    // completion, imaging the backend every 40 requests, and
    // fingerprinting the schedule, the request stream and the final
    // report.
    let rec = replay::record_cell(
        SystemId::Preset(SystemKind::DramLess),
        &spec,
        &w,
        &params,
        40,
    )
    .expect("record");
    let fp = rec.fingerprint;
    println!(
        "recorded {}: {} requests, {} completions on the tape, {} checkpoints",
        rec.outcome.kernel.label(),
        fp.requests,
        rec.tape.len(),
        rec.checkpoints.len()
    );
    println!(
        "  fingerprint: schedule={:#018x} stream={:#018x} report={:#018x}",
        fp.schedule, fp.stream, fp.report
    );
    if let Some(d) = &rec.outcome.degraded {
        println!("  faults: {}", d.to_json_string());
    }

    // Window replay: run the tape up to the nearest checkpoint at or
    // before the window start, restore its backend image and re-execute
    // through the end, checking every completion against the tape and
    // every recorded checkpoint crossed on the way.
    let mid = rec.checkpoints[rec.checkpoints.len() / 2].requests;
    let rep = replay::replay_window(&rec, &params, mid..(mid + 60)).expect("window replay");
    println!(
        "window {mid}..{}: resumed at request {}, replayed to {}, re-verified {} checkpoint(s)",
        mid + 60,
        rep.resumed_at,
        rep.replayed_to,
        rep.verified_checkpoints
    );

    // Mid-cell resume to completion: the replay layer checks the final
    // stream digest and the report fingerprint — byte identity with
    // the straight run, faults included.
    let rep = replay::replay_window(&rec, &params, mid..u64::MAX).expect("resume");
    assert!(rep.completed);
    println!(
        "resume from request {mid}: ran to completion, report fingerprint re-verified ({:#018x})",
        fp.report
    );

    // Divergence is loud: flip one bit of a recorded stream digest and
    // a replay that crosses the tampered checkpoint refuses instead of
    // producing wrong bytes.
    let mut tampered = rec.clone();
    tampered.checkpoints[1].stream ^= 1;
    match replay::replay_window(&tampered, &params, 0..u64::MAX) {
        Err(ReplayError::Divergence { at_requests, .. }) => {
            println!("tampered checkpoint rejected at request {at_requests} (divergence)");
        }
        Err(e) => panic!("tampering must surface as divergence, got: {e}"),
        Ok(_) => panic!("tampering slipped through"),
    }
}
