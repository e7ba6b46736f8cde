//! Deterministic record/replay: run fingerprints, periodic checkpoints,
//! and window re-execution (wasm-rr style).
//!
//! **Record** plays each `(system, workload)` cell through the normal
//! phase runner, but drives the execution phase through the
//! [`accel::exec::ScheduleCursor`] slice loop directly so it can
//! interleave bookkeeping at arbitration-slice boundaries:
//!
//! * a chained FNV-1a **stream fingerprint** commits to every backend
//!   request (address, kind) and the completion clock of every batch;
//! * every ~`checkpoint_every` requests it captures a [`Checkpoint`]:
//!   the cursor's [`StateImage`] plus the composed backend's, tagged
//!   with the request count and the stream digest at that boundary.
//!
//! The cell's [`RunFingerprint`] additionally commits to the schedule
//! content-address (the same [`workloads::cache::traces_fingerprint`]
//! value the schedule memo table is keyed by) and to the final report
//! JSON, so a recording pins *inputs*, *request stream* and *outputs*.
//!
//! **Replay** restores the nearest checkpoint at or before the window
//! start and re-executes slices until the window end. Phases 1–2
//! (offload, bulk stage-in) are deterministic pure functions of the
//! spec and workload, so replay re-runs them fresh and then restores
//! only the execution-phase images over the prepared state. Every
//! recorded checkpoint the window crosses must reproduce its stream
//! digest exactly; any mismatch fails loudly with
//! [`ReplayError::Divergence`] instead of silently continuing from
//! corrupt state. A window that reaches the end of the run also
//! re-verifies the final report fingerprint.
//!
//! Fault injection replays for free: fault draws are stateless hashes
//! keyed by per-line counters that live inside the controller images.
//!
//! The analytic fidelity tier prices the whole execution phase in one
//! closed form — there is no request stream to checkpoint — so its
//! cells record an empty checkpoint list and verify by re-running and
//! comparing report fingerprints; asking for a `--window` on one is a
//! typed error.

use crate::analytic::ExecModel;
use crate::config::{SystemId, SystemParams};
use crate::report::RunOutcome;
use crate::spec::{SpecError, SystemSpec};
use crate::system::{build_system, finalize_run, prepare_phases, PreparedRun};
use accel::exec::{Accelerator, ScheduleCursor};
use sim_core::mem::{FidelityTier, MemoryBackend};
use sim_core::snapshot::{SnapshotError, StateImage};
use sim_core::Snapshot;
use std::fmt;
use std::ops::Range;
use util::fingerprint::fnv1a;
use util::json::ToJson;
use workloads::{SizeError, Workload};

/// Default checkpoint cadence in backend requests.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 50_000;

/// Schema version of [`Recording`] files this build reads and writes.
pub const RECORDING_VERSION: u32 = 1;

/// The per-cell commitment: schedule content-address, request stream,
/// and final report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFingerprint {
    /// Content address of the workload's traces —
    /// [`workloads::cache::traces_fingerprint`], the same value the
    /// schedule memo table is keyed by. Replay proves it is re-deriving
    /// the same request stream before comparing anything downstream.
    pub schedule: u64,
    /// Total backend requests the execution phase issued (zero for
    /// analytic-tier cells, which have no request stream).
    pub requests: u64,
    /// The chained stream digest after the final request
    /// ([`ScheduleCursor::stream_fingerprint`]; zero for analytic).
    pub stream: u64,
    /// FNV-1a over the cell's full [`RunOutcome`] JSON.
    pub report: u64,
}

util::json_struct!(RunFingerprint {
    schedule,
    requests,
    stream,
    report
});

/// One restore point: the execution cursor's image and the composed
/// backend's image at an arbitration-slice boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Backend requests issued when the images were taken.
    pub requests: u64,
    /// The stream digest at that boundary — replay re-verifies it both
    /// right after restoring (catching tampered cursor images) and when
    /// a later window crosses this boundary.
    pub stream: u64,
    /// The [`ScheduleCursor`] image.
    pub exec: StateImage,
    /// The composed execution backend's image.
    pub backend: StateImage,
}

util::json_struct!(Checkpoint {
    requests,
    stream,
    exec,
    backend
});

/// One recorded `(system, workload)` cell: everything needed to re-run
/// it and to check the re-run against the original.
#[derive(Debug, Clone)]
pub struct CellRecording {
    /// The spec the cell ran under (telemetry stripped — see
    /// [`record_cell`]).
    pub spec: SystemSpec,
    /// The workload (rebuilt deterministically on replay).
    pub workload: Workload,
    /// The run's commitment.
    pub fingerprint: RunFingerprint,
    /// Periodic restore points, ascending by request count; the first
    /// one is always at request zero. Empty for analytic-tier cells.
    pub checkpoints: Vec<Checkpoint>,
    /// The straight run's full outcome.
    pub outcome: RunOutcome,
}

util::json_struct!(CellRecording {
    spec,
    workload,
    fingerprint,
    checkpoints,
    outcome
});

/// A recorded run: the parameters plus every cell, in workload-major
/// order (the same order the sweep engine reports in).
#[derive(Debug, Clone)]
pub struct Recording {
    /// [`RECORDING_VERSION`] at record time.
    pub version: u32,
    /// The system parameters every cell ran under (replay uses these,
    /// not the caller's).
    pub params: SystemParams,
    /// The checkpoint cadence the recording was taken with.
    pub checkpoint_every: u64,
    /// The recorded cells.
    pub cells: Vec<CellRecording>,
}

util::json_struct!(Recording {
    version,
    params,
    checkpoint_every,
    cells
});

/// Why a recording could not be taken or a replay failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The spec's axes do not compose.
    Spec(SpecError),
    /// A component failed to image or restore.
    Snapshot(SnapshotError),
    /// The recording was written by an incompatible build.
    UnsupportedVersion {
        /// The version this build reads.
        expected: u32,
        /// The version found in the file.
        got: u32,
    },
    /// The cell index does not exist in the recording.
    NoSuchCell {
        /// The requested index.
        index: usize,
        /// How many cells the recording holds.
        cells: usize,
    },
    /// The rebuilt workload's traces hash differently than recorded:
    /// the replay would re-derive a different request stream.
    ScheduleMismatch {
        /// The cell's display label.
        cell: String,
        /// The recorded schedule content-address.
        expected: u64,
        /// The content-address of the rebuilt traces.
        got: u64,
    },
    /// The re-executed stream stopped matching the recorded digests —
    /// the replay is not the run that was recorded.
    Divergence {
        /// The cell's display label.
        cell: String,
        /// The request count of the recorded boundary that failed.
        at_requests: u64,
        /// The recorded stream digest.
        expected: u64,
        /// The digest the replay produced.
        got: u64,
    },
    /// The replay completed but its report hashes differently.
    ReportMismatch {
        /// The cell's display label.
        cell: String,
        /// The recorded report fingerprint.
        expected: u64,
        /// The fingerprint of the replayed report.
        got: u64,
    },
    /// The requested window cannot be served.
    BadWindow {
        /// The cell's display label.
        cell: String,
        /// What was wrong with it.
        detail: String,
    },
    /// The cell has no request stream to window into (analytic tier).
    NoRequestStream {
        /// The cell's display label.
        cell: String,
    },
    /// The recorded workload's size cannot be rebuilt.
    Workload(SizeError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Spec(e) => write!(f, "{e}"),
            ReplayError::Snapshot(e) => write!(f, "{e}"),
            ReplayError::UnsupportedVersion { expected, got } => write!(
                f,
                "recording version v{got} is not the v{expected} this build reads"
            ),
            ReplayError::NoSuchCell { index, cells } => {
                write!(f, "cell {index} does not exist (recording has {cells})")
            }
            ReplayError::ScheduleMismatch {
                cell,
                expected,
                got,
            } => write!(
                f,
                "{cell}: rebuilt traces hash to {got:#018x}, recording was taken \
                 over {expected:#018x} — different workload build"
            ),
            ReplayError::Divergence {
                cell,
                at_requests,
                expected,
                got,
            } => write!(
                f,
                "{cell}: replay diverged at request {at_requests}: recorded stream \
                 digest {expected:#018x}, replayed {got:#018x}"
            ),
            ReplayError::ReportMismatch {
                cell,
                expected,
                got,
            } => write!(
                f,
                "{cell}: replayed report hashes to {got:#018x}, recorded \
                 {expected:#018x}"
            ),
            ReplayError::BadWindow { cell, detail } => write!(f, "{cell}: bad window: {detail}"),
            ReplayError::NoRequestStream { cell } => write!(
                f,
                "{cell}: analytic-tier cells have no request stream; replay the \
                 whole recording (no --window) to verify them"
            ),
            ReplayError::Workload(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<SpecError> for ReplayError {
    fn from(e: SpecError) -> Self {
        ReplayError::Spec(e)
    }
}

impl From<SnapshotError> for ReplayError {
    fn from(e: SnapshotError) -> Self {
        ReplayError::Snapshot(e)
    }
}

impl From<SizeError> for ReplayError {
    fn from(e: SizeError) -> Self {
        ReplayError::Workload(e)
    }
}

/// What one window replay (or full verification) did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowReport {
    /// The cell's display label (`system/kernel`).
    pub cell: String,
    /// Request count of the checkpoint the replay resumed from.
    pub resumed_at: u64,
    /// Request count the replay stopped at (slice-granular, so it can
    /// overshoot the window end).
    pub replayed_to: u64,
    /// Recorded checkpoints the window crossed and re-verified.
    pub verified_checkpoints: usize,
    /// Whether the replay ran the cell to completion (and therefore
    /// also re-verified the final stream and report fingerprints).
    pub completed: bool,
}

/// FNV-1a over a report's full JSON — the `report` lane of
/// [`RunFingerprint`].
pub fn report_fingerprint(out: &RunOutcome) -> u64 {
    fnv1a(out.to_json_string().as_bytes())
}

fn cell_label(rec: &CellRecording) -> String {
    format!(
        "{}/{}",
        rec.outcome.system.name(),
        rec.outcome.kernel.label()
    )
}

fn checkpoint_of(
    cur: &ScheduleCursor,
    backend: &dyn MemoryBackend,
) -> Result<Checkpoint, ReplayError> {
    Ok(Checkpoint {
        requests: cur.mem_requests(),
        stream: cur.stream_fingerprint(),
        exec: cur.snapshot(),
        backend: backend.snapshot_state()?,
    })
}

/// Records one `(system, workload)` cell: runs it exactly like the
/// normal runner (bit-identical outcome) while fingerprinting the
/// request stream and checkpointing every ~`checkpoint_every` requests.
///
/// The spec's telemetry knob is stripped for the recorded run: metrics
/// fold into the report JSON, and a *windowed* replay could only ever
/// re-collect a suffix of them, so recorded cells run untelemetried to
/// keep the report fingerprint replayable.
///
/// # Errors
///
/// [`ReplayError::Spec`] when the spec does not compose or `params`
/// are malformed, and [`ReplayError::Snapshot`] when a backend cannot
/// be imaged.
///
/// # Panics
///
/// Panics if `checkpoint_every` is zero.
pub fn record_cell(
    id: SystemId,
    spec: &SystemSpec,
    workload: &Workload,
    params: &SystemParams,
    checkpoint_every: u64,
) -> Result<CellRecording, ReplayError> {
    assert!(checkpoint_every > 0, "checkpoint cadence must be >= 1");
    params.validate()?;
    let mut spec = spec.clone();
    spec.telemetry = None;
    let built = workload.build_cached(params.agents);
    let armed = spec.faults.is_some();
    let sys = build_system(&spec, params, built.character.footprint)?;
    let mut prep = prepare_phases(sys, &built, params, None);
    let schedule = workloads::cache::traces_fingerprint(&built);

    let (fingerprint, checkpoints, outcome) = match spec.tier {
        FidelityTier::Analytic => {
            let model = ExecModel::for_spec(&spec, &built, params)?;
            let exec = model.exec(&prep.cfg);
            let out = finalize_run(id, prep, &built, None, armed, exec);
            let fingerprint = RunFingerprint {
                schedule,
                requests: 0,
                stream: 0,
                report: report_fingerprint(&out),
            };
            (fingerprint, Vec::new(), out)
        }
        FidelityTier::Accurate => {
            let sched = workloads::cache::schedule_for(&built, prep.cfg.l1, prep.cfg.l2);
            let accel = Accelerator::new(prep.cfg);
            let mut cur = accel.schedule_cursor(prep.exec_start, &sched, prep.sys.backend.as_mut());
            // The request-zero checkpoint anchors every window: restore
            // it and the replay is the straight run.
            let mut checkpoints = vec![checkpoint_of(&cur, prep.sys.backend.as_ref())?];
            let mut next = checkpoint_every;
            while accel.advance_slice(&mut cur, &sched, prep.sys.backend.as_mut()) {
                if cur.mem_requests() >= next {
                    checkpoints.push(checkpoint_of(&cur, prep.sys.backend.as_ref())?);
                    next = cur.mem_requests() + checkpoint_every;
                }
            }
            let requests = cur.mem_requests();
            let stream = cur.stream_fingerprint();
            let exec = accel.finish_schedule(&cur, &sched);
            let out = finalize_run(id, prep, &built, None, armed, exec);
            let fingerprint = RunFingerprint {
                schedule,
                requests,
                stream,
                report: report_fingerprint(&out),
            };
            (fingerprint, checkpoints, out)
        }
    };
    Ok(CellRecording {
        spec,
        workload: *workload,
        fingerprint,
        checkpoints,
        outcome,
    })
}

/// Records every `(system, workload)` pair in workload-major order (the
/// sweep engine's reporting order).
///
/// # Errors
///
/// The first cell that fails to compose or image aborts the recording.
///
/// # Panics
///
/// Panics if `checkpoint_every` is zero.
pub fn record_run(
    systems: &[(SystemId, SystemSpec)],
    workloads: &[Workload],
    params: &SystemParams,
    checkpoint_every: u64,
) -> Result<Recording, ReplayError> {
    let mut cells = Vec::new();
    for w in workloads {
        for (id, spec) in systems {
            cells.push(record_cell(id.clone(), spec, w, params, checkpoint_every)?);
        }
    }
    Ok(Recording {
        version: RECORDING_VERSION,
        params: *params,
        checkpoint_every,
        cells,
    })
}

/// Rebuilds a recorded cell's system and workload and positions a fresh
/// cursor at the start of execution, after proving the rebuilt traces
/// content-address matches the recording.
fn reprepare(
    rec: &CellRecording,
    params: &SystemParams,
    label: &str,
) -> Result<(PreparedRun, std::sync::Arc<accel::sched::MemSchedule>), ReplayError> {
    let built = rec.workload.build_cached(params.agents);
    let got = workloads::cache::traces_fingerprint(&built);
    if got != rec.fingerprint.schedule {
        return Err(ReplayError::ScheduleMismatch {
            cell: label.to_string(),
            expected: rec.fingerprint.schedule,
            got,
        });
    }
    let sys = build_system(&rec.spec, params, built.character.footprint)?;
    let prep = prepare_phases(sys, &built, params, None);
    let sched = workloads::cache::schedule_for(&built, prep.cfg.l1, prep.cfg.l2);
    Ok((prep, sched))
}

/// Replays one cell's request window `[window.start, window.end)`:
/// restores the nearest checkpoint at or before the window start,
/// re-executes slices until the window end (or the end of the run), and
/// verifies the stream digest of every recorded checkpoint crossed. A
/// replay that reaches the end of the run also re-verifies the final
/// stream digest and the report fingerprint.
///
/// # Errors
///
/// [`ReplayError::Divergence`] the moment a recorded digest is not
/// reproduced; [`ReplayError::NoRequestStream`] for analytic-tier
/// cells; [`ReplayError::BadWindow`] for an empty window or one that
/// starts past the recorded stream; [`ReplayError::Spec`] for malformed
/// `params`; [`ReplayError::Workload`] for a workload size no kernel
/// builds; plus the composition/restore errors.
pub fn replay_window(
    rec: &CellRecording,
    params: &SystemParams,
    window: Range<u64>,
) -> Result<WindowReport, ReplayError> {
    params.validate()?;
    rec.workload.validate()?;
    let label = cell_label(rec);
    if rec.spec.tier == FidelityTier::Analytic {
        return Err(ReplayError::NoRequestStream { cell: label });
    }
    if window.start >= window.end {
        return Err(ReplayError::BadWindow {
            cell: label,
            detail: format!("empty window {}..{}", window.start, window.end),
        });
    }
    if window.start > rec.fingerprint.requests {
        return Err(ReplayError::BadWindow {
            cell: label,
            detail: format!(
                "window starts at request {} but the recorded stream has {}",
                window.start, rec.fingerprint.requests
            ),
        });
    }
    let ckpt = match rec
        .checkpoints
        .iter()
        .take_while(|c| c.requests <= window.start)
        .last()
    {
        Some(c) => c,
        None => {
            return Err(ReplayError::BadWindow {
                cell: label,
                detail: "no checkpoint at or before the window start".to_string(),
            })
        }
    };

    let (mut prep, sched) = reprepare(rec, params, &label)?;
    let accel = Accelerator::new(prep.cfg);
    let mut cur = accel.schedule_cursor(prep.exec_start, &sched, prep.sys.backend.as_mut());
    prep.sys.backend.restore_state(&ckpt.backend)?;
    cur.restore(&ckpt.exec)?;
    cur.bind(&sched)?;
    if cur.mem_requests() != ckpt.requests || cur.stream_fingerprint() != ckpt.stream {
        // The cursor image disagrees with its own envelope — a tampered
        // or cross-wired checkpoint.
        return Err(ReplayError::Divergence {
            cell: label,
            at_requests: ckpt.requests,
            expected: ckpt.stream,
            got: cur.stream_fingerprint(),
        });
    }
    let resumed_at = ckpt.requests;

    // Recorded checkpoints strictly after the resume point, in order.
    let mut next_i = rec
        .checkpoints
        .iter()
        .position(|c| c.requests > resumed_at)
        .unwrap_or(rec.checkpoints.len());
    let mut verified = 0usize;
    while cur.mem_requests() < window.end
        && accel.advance_slice(&mut cur, &sched, prep.sys.backend.as_mut())
    {
        while next_i < rec.checkpoints.len()
            && rec.checkpoints[next_i].requests <= cur.mem_requests()
        {
            let c = &rec.checkpoints[next_i];
            // Slice boundaries are deterministic, so the replay must
            // land on exactly the recorded request count with exactly
            // the recorded digest; passing over it means the request
            // stream itself changed shape.
            if c.requests < cur.mem_requests() || cur.stream_fingerprint() != c.stream {
                return Err(ReplayError::Divergence {
                    cell: label,
                    at_requests: c.requests,
                    expected: c.stream,
                    got: cur.stream_fingerprint(),
                });
            }
            verified += 1;
            next_i += 1;
        }
    }

    let completed = cur.is_done();
    if completed {
        if cur.mem_requests() != rec.fingerprint.requests
            || cur.stream_fingerprint() != rec.fingerprint.stream
        {
            return Err(ReplayError::Divergence {
                cell: label,
                at_requests: rec.fingerprint.requests,
                expected: rec.fingerprint.stream,
                got: cur.stream_fingerprint(),
            });
        }
        let exec = accel.finish_schedule(&cur, &sched);
        let built = rec.workload.build_cached(params.agents);
        let armed = rec.spec.faults.is_some();
        let out = finalize_run(rec.outcome.system.clone(), prep, &built, None, armed, exec);
        let got = report_fingerprint(&out);
        if got != rec.fingerprint.report {
            return Err(ReplayError::ReportMismatch {
                cell: label,
                expected: rec.fingerprint.report,
                got,
            });
        }
    }
    Ok(WindowReport {
        cell: label,
        resumed_at,
        replayed_to: cur.mem_requests(),
        verified_checkpoints: verified,
        completed,
    })
}

/// Fully re-verifies one cell: accurate-tier cells replay the whole
/// stream from the request-zero checkpoint (crossing and checking every
/// recorded checkpoint, the final stream digest, and the report
/// fingerprint); analytic-tier cells re-run the closed form and compare
/// report fingerprints.
///
/// # Errors
///
/// Same as [`replay_window`], minus the window errors.
pub fn verify_cell(
    rec: &CellRecording,
    params: &SystemParams,
) -> Result<WindowReport, ReplayError> {
    params.validate()?;
    rec.workload.validate()?;
    match rec.spec.tier {
        FidelityTier::Accurate => replay_window(rec, params, 0..u64::MAX),
        FidelityTier::Analytic => {
            let label = cell_label(rec);
            let built = rec.workload.build_cached(params.agents);
            let got_sched = workloads::cache::traces_fingerprint(&built);
            if got_sched != rec.fingerprint.schedule {
                return Err(ReplayError::ScheduleMismatch {
                    cell: label,
                    expected: rec.fingerprint.schedule,
                    got: got_sched,
                });
            }
            let armed = rec.spec.faults.is_some();
            let sys = build_system(&rec.spec, params, built.character.footprint)?;
            let prep = prepare_phases(sys, &built, params, None);
            let model = ExecModel::for_spec(&rec.spec, &built, params)?;
            let exec = model.exec(&prep.cfg);
            let out = finalize_run(rec.outcome.system.clone(), prep, &built, None, armed, exec);
            let got = report_fingerprint(&out);
            if got != rec.fingerprint.report {
                return Err(ReplayError::ReportMismatch {
                    cell: label,
                    expected: rec.fingerprint.report,
                    got,
                });
            }
            Ok(WindowReport {
                cell: label,
                resumed_at: 0,
                replayed_to: 0,
                verified_checkpoints: 0,
                completed: true,
            })
        }
    }
}

/// Checks a recording's schema version.
///
/// # Errors
///
/// [`ReplayError::UnsupportedVersion`] when the file was written by an
/// incompatible build.
pub fn check_version(rec: &Recording) -> Result<(), ReplayError> {
    if rec.version != RECORDING_VERSION {
        return Err(ReplayError::UnsupportedVersion {
            expected: RECORDING_VERSION,
            got: rec.version,
        });
    }
    Ok(())
}

/// Fully re-verifies every cell of a recording, in order.
///
/// # Errors
///
/// The first cell that diverges (or fails to compose) aborts the
/// verification with its error.
pub fn verify(rec: &Recording) -> Result<Vec<WindowReport>, ReplayError> {
    check_version(rec)?;
    rec.cells
        .iter()
        .map(|c| verify_cell(c, &rec.params))
        .collect()
}

/// Replays the request window `[window.start, window.end)` of one cell
/// of a recording.
///
/// # Errors
///
/// [`ReplayError::NoSuchCell`] for an out-of-range index, plus
/// everything [`replay_window`] can return.
pub fn replay(
    rec: &Recording,
    cell: usize,
    window: Range<u64>,
) -> Result<WindowReport, ReplayError> {
    check_version(rec)?;
    match rec.cells.get(cell) {
        Some(c) => replay_window(c, &rec.params, window),
        None => Err(ReplayError::NoSuchCell {
            index: cell,
            cells: rec.cells.len(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use workloads::{Kernel, Scale};

    fn small() -> (SystemSpec, Workload, SystemParams) {
        (
            SystemKind::DramLess.spec(),
            Workload::of(Kernel::Gemver, Scale(0.25)),
            SystemParams::default(),
        )
    }

    /// Records `small()` with a cadence that yields several mid-run
    /// checkpoints.
    fn recorded() -> (CellRecording, SystemParams) {
        let (spec, w, params) = small();
        let id = SystemId::Preset(SystemKind::DramLess);
        // First pass learns the stream length, second pass checkpoints
        // at quarter intervals.
        let probe = record_cell(id.clone(), &spec, &w, &params, u64::MAX / 2).unwrap();
        let every = (probe.fingerprint.requests / 4).max(1);
        let rec = record_cell(id, &spec, &w, &params, every).unwrap();
        (rec, params)
    }

    #[test]
    fn recording_is_bit_identical_to_the_straight_run_and_verifies() {
        let (rec, params) = recorded();
        let built = rec.workload.build_cached(params.agents);
        let straight = crate::system::simulate_spec_as(
            SystemId::Preset(SystemKind::DramLess),
            &rec.spec,
            &built,
            &params,
        )
        .unwrap();
        assert_eq!(
            rec.outcome.to_json_string(),
            straight.to_json_string(),
            "recording must not perturb the run"
        );
        assert_eq!(rec.fingerprint.report, report_fingerprint(&straight));
        assert!(
            rec.checkpoints.len() >= 3,
            "want mid-run checkpoints, got {}",
            rec.checkpoints.len()
        );
        let rep = verify_cell(&rec, &params).unwrap();
        assert!(rep.completed);
        assert_eq!(rep.resumed_at, 0);
        assert_eq!(rep.verified_checkpoints, rec.checkpoints.len() - 1);
        assert_eq!(rep.replayed_to, rec.fingerprint.requests);
    }

    #[test]
    fn window_replay_resumes_from_a_mid_run_checkpoint() {
        let (rec, params) = recorded();
        let mid = rec.checkpoints[1].requests;
        let end = rec.checkpoints[2].requests;
        let rep = replay_window(&rec, &params, mid..end).unwrap();
        assert_eq!(
            rep.resumed_at, mid,
            "nearest checkpoint is the window start"
        );
        assert!(rep.replayed_to >= end);
        assert!(rep.verified_checkpoints >= 1);
        // A window *inside* a checkpoint interval resumes from the one
        // before it.
        let rep = replay_window(&rec, &params, (mid + 1)..end).unwrap();
        assert_eq!(rep.resumed_at, mid);
    }

    #[test]
    fn tampered_cursor_image_is_rejected_at_restore() {
        let (mut rec, params) = recorded();
        let mid = rec.checkpoints[1].requests;
        rec.checkpoints[1].stream ^= 1;
        let err = replay_window(&rec, &params, mid..(mid + 1)).unwrap_err();
        assert!(matches!(err, ReplayError::Divergence { .. }), "{err}");
    }

    #[test]
    fn tampered_backend_image_diverges_downstream() {
        let (mut rec, params) = recorded();
        // Swap in the request-zero backend image: the envelope is valid
        // and the cursor restores cleanly, but the device timeline is
        // behind — replay must catch the divergence, not run through.
        let stale = rec.checkpoints[0].backend.clone();
        rec.checkpoints[1].backend = stale;
        let mid = rec.checkpoints[1].requests;
        let err = replay_window(&rec, &params, mid..u64::MAX).unwrap_err();
        assert!(
            matches!(
                err,
                ReplayError::Divergence { .. } | ReplayError::ReportMismatch { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn windows_are_validated() {
        let (rec, params) = recorded();
        assert!(matches!(
            replay_window(&rec, &params, 5..5),
            Err(ReplayError::BadWindow { .. })
        ));
        assert!(matches!(
            replay_window(&rec, &params, (rec.fingerprint.requests + 1)..u64::MAX),
            Err(ReplayError::BadWindow { .. })
        ));
    }

    #[test]
    fn analytic_cells_verify_by_report_and_reject_windows() {
        let (mut spec, w, params) = small();
        spec.tier = FidelityTier::Analytic;
        let id = SystemId::Preset(SystemKind::DramLess);
        let rec = record_cell(id, &spec, &w, &params, 1000).unwrap();
        assert!(rec.checkpoints.is_empty());
        assert_eq!(rec.fingerprint.requests, 0);
        let rep = verify_cell(&rec, &params).unwrap();
        assert!(rep.completed);
        assert!(matches!(
            replay_window(&rec, &params, 0..10),
            Err(ReplayError::NoRequestStream { .. })
        ));
    }

    #[test]
    fn recordings_round_trip_through_json() {
        let (rec, params) = recorded();
        let full = Recording {
            version: RECORDING_VERSION,
            params,
            checkpoint_every: 1000,
            cells: vec![rec],
        };
        let text = full.to_json_string();
        let back = <Recording as util::json::FromJson>::from_json_str(&text).unwrap();
        assert_eq!(back.to_json_string(), text);
        let reports = verify(&back).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].completed);
    }

    #[test]
    fn wrong_version_is_a_typed_error() {
        let params = SystemParams::default();
        let rec = Recording {
            version: RECORDING_VERSION + 1,
            params,
            checkpoint_every: 1,
            cells: Vec::new(),
        };
        assert!(matches!(
            verify(&rec),
            Err(ReplayError::UnsupportedVersion { .. })
        ));
    }
}
