//! Deterministic record/replay: run fingerprints, a tape of backend
//! completions, periodic backend checkpoints and window re-execution
//! (wasm-rr style).
//!
//! The accelerator reaches memory only through requests its backend
//! completes (Fig. 9b), so its half of a run is a pure function of the
//! schedule and of each request's completion time. A recording keeps
//! those completions, the cell's *tape*, and never the engine's state.
//!
//! **Record** plays each `(system, workload)` cell through the normal
//! phase runner, but drives the execution phase through the
//! [`accel::exec::ScheduleCursor`] call loop directly, against the
//! real backend wrapped in an [`accel::exec::Tape`]:
//!
//! * the tape writes each request's completion down, as an offset from
//!   the time the request was issued;
//! * a chained FNV-1a **stream fingerprint** commits to every backend
//!   request (address, kind) and the completion clock of every batch;
//! * every ~`checkpoint_every` requests it captures a [`Checkpoint`]:
//!   the composed backend's [`StateImage`] after the first request
//!   batch at or past the target, tagged with the request count and the
//!   stream digest at that boundary.
//!
//! The cell's [`RunFingerprint`] additionally commits to the schedule
//! content-address (the same [`workloads::cache::traces_fingerprint`]
//! value the schedule memo table is keyed by) and to the final report
//! JSON, so a recording pins *inputs*, *request stream* and *outputs*.
//!
//! **Replay** first checks the cell's fields against each other: the
//! tape's length and sum, and the checkpoint list's order and range.
//! Phases 1–2 (offload, bulk stage-in) are deterministic pure functions
//! of the spec and workload, so replay re-runs them fresh. It then runs
//! the schedule from request 0 against the tape alone up to the
//! checkpoint at or before the window start, restores the real
//! backend's image there and runs on against it until the window end.
//! From the resume point on, every completion the backend returns must
//! be the tape's, and every recorded checkpoint crossed, before the
//! resume point or after it, must land on its request count with its
//! stream digest. The first mismatch fails loudly with a typed error
//! naming the request or the field, instead of silently continuing from
//! corrupt state. A window that reaches the end of the run also
//! re-verifies the final report fingerprint; a full verification is the
//! window over the whole run, so it checks the whole tape.
//!
//! Fault injection replays for free: fault draws are stateless hashes
//! keyed by per-line counters that live inside the controller images.
//!
//! The analytic fidelity tier prices the whole execution phase in one
//! closed form — there is no request stream to checkpoint — so its
//! cells record an empty checkpoint list and tape and verify by
//! re-running and comparing report fingerprints; asking for a
//! `--window` on one is a typed error.

use crate::analytic::ExecModel;
use crate::config::{SystemId, SystemParams};
use crate::report::RunOutcome;
use crate::spec::{SpecError, SystemSpec};
use crate::system::{build_system, finalize_run, prepare_phases, PreparedRun};
use accel::exec::{Accelerator, ExecReport, ScheduleCursor, Tape};
use sim_core::mem::{FidelityTier, MemoryBackend};
use sim_core::snapshot::{SnapshotError, StateImage};
use sim_core::time::Picos;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use util::fingerprint::fnv1a;
use util::json::{Fields, FromJson, Json, JsonError, ToJson};
use workloads::suite::BuiltWorkload;
use workloads::{SizeError, Workload};

/// Default checkpoint cadence in backend requests.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 50_000;

/// Schema version of [`Recording`] files this build reads and writes.
pub const RECORDING_VERSION: u32 = 2;

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

/// One restore point: the composed backend's image at a call boundary
/// of the replay, right after one request batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Backend requests issued when the image was taken.
    pub requests: u64,
    /// The stream digest at that boundary, re-verified whenever a
    /// replay crosses it.
    pub stream: u64,
    /// The composed execution backend's image.
    pub backend: StateImage,
}

util::json_struct!(Checkpoint {
    requests,
    stream,
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
    /// Periodic restore points, strictly ascending by request count;
    /// the first one is always at request zero. Empty for analytic-tier
    /// cells.
    pub checkpoints: Vec<Checkpoint>,
    /// The tape: each backend request's completion as an offset from
    /// its issue time, in request order. With the schedule it decides
    /// the accelerator's whole side of the run. Empty for analytic-tier
    /// cells.
    pub tape: Vec<Picos>,
    /// The straight run's full outcome.
    pub outcome: RunOutcome,
}

util::json_struct!(CellRecording {
    spec,
    workload,
    fingerprint,
    checkpoints,
    tape,
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

impl ToJson for Recording {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".to_string(), self.version.to_json()),
            ("params".to_string(), self.params.to_json()),
            (
                "checkpoint_every".to_string(),
                self.checkpoint_every.to_json(),
            ),
            ("cells".to_string(), self.cells.to_json()),
        ])
    }
}

/// Reads `version` first and refuses any but [`RECORDING_VERSION`]
/// before decoding the rest, so a file of another layout is named by its
/// version, not by the first key that layout moved.
impl FromJson for Recording {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let ctx = |e: JsonError| e.context("Recording");
        let mut f = Fields::new(v);
        let version = f.get("version").map_err(ctx)?;
        check_version(version).map_err(|e| ctx(JsonError::new(e.to_string())))?;
        let rec = Recording {
            version,
            params: f.get("params").map_err(ctx)?,
            checkpoint_every: f.get("checkpoint_every").map_err(ctx)?,
            cells: f.get("cells").map_err(ctx)?,
        };
        f.finish().map_err(ctx)?;
        Ok(rec)
    }
}

/// What a [`ReplayError::Divergence`] compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diverged {
    /// The chained stream digest at a recorded request count.
    Stream,
    /// One request's completion, in picoseconds after its issue.
    Completion,
}

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
    /// The cell's own fields contradict each other, so no replay could
    /// match them; refused before anything runs.
    BadRecording {
        /// The cell's display label.
        cell: String,
        /// The field's path in the cell (`tape`,
        /// `checkpoints[2].requests`).
        field: String,
        /// What is wrong with it.
        detail: String,
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
    /// The replay's request count never lands on a recorded one: it
    /// steps past a checkpoint's, or ends before or past the run's.
    MissedCount {
        /// The cell's display label.
        cell: String,
        /// The recorded count's field (`checkpoints[2].requests`,
        /// `fingerprint.requests`).
        field: String,
        /// The recorded count.
        recorded: u64,
        /// Where the replay landed instead.
        landed: u64,
    },
    /// The re-executed stream stopped matching the recording — the
    /// replay is not the run that was recorded.
    Divergence {
        /// The cell's display label.
        cell: String,
        /// The request count of the recorded boundary that failed, or
        /// the index of the request whose completion differs.
        at_requests: u64,
        /// What disagreed.
        on: Diverged,
        /// The recorded digest or completion.
        expected: u64,
        /// The replayed digest or completion.
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
            ReplayError::BadRecording {
                cell,
                field,
                detail,
            } => write!(f, "{cell}: bad recording: `{field}` {detail}"),
            ReplayError::ScheduleMismatch {
                cell,
                expected,
                got,
            } => write!(
                f,
                "{cell}: rebuilt traces hash to {got:#018x}, recording was taken \
                 over {expected:#018x} — different workload build"
            ),
            ReplayError::MissedCount {
                cell,
                field,
                recorded,
                landed,
            } => write!(
                f,
                "{cell}: the replay lands at request {landed}, never on `{field}` {recorded}"
            ),
            ReplayError::Divergence {
                cell,
                at_requests,
                on: Diverged::Stream,
                expected,
                got,
            } => write!(
                f,
                "{cell}: replay diverged at request {at_requests}: recorded stream \
                 digest {expected:#018x}, replayed {got:#018x}"
            ),
            ReplayError::Divergence {
                cell,
                at_requests,
                on: Diverged::Completion,
                expected,
                got,
            } => write!(
                f,
                "{cell}: replay diverged at request {at_requests}: the tape completes \
                 it {expected} ps after issue, the backend {got} ps"
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
    /// Request count the replay stopped at (batch-granular, so it can
    /// overshoot the window end).
    pub replayed_to: u64,
    /// Recorded checkpoints past the resume point that the window
    /// crossed and re-verified.
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
        backend: backend.snapshot_state()?,
    })
}

/// Records one `(system, workload)` cell: runs it exactly like the
/// normal runner (bit-identical outcome) while taping every completion,
/// fingerprinting the request stream and checkpointing the backend every
/// ~`checkpoint_every` requests.
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

    let (fingerprint, checkpoints, tape, outcome) = match spec.tier {
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
            (fingerprint, Vec::new(), Vec::new(), out)
        }
        FidelityTier::Accurate => {
            let sched = workloads::cache::schedule_for(&built, prep.cfg.l1, prep.cfg.l2);
            let accel = Accelerator::new(prep.cfg);
            let mut tape = Tape::new(Vec::new(), Some(prep.sys.backend.as_mut()));
            let mut cur = accel.schedule_cursor(prep.exec_start, &sched, &mut tape);
            // The request-zero checkpoint anchors every window: restore
            // it and the replay is the straight run.
            let mut checkpoints = vec![checkpoint_of(&cur, &tape)?];
            let mut next = checkpoint_every;
            while accel.advance_slice(&mut cur, &sched, &mut tape) {
                if cur.mem_requests() >= next {
                    checkpoints.push(checkpoint_of(&cur, &tape)?);
                    next = cur.mem_requests() + checkpoint_every;
                }
            }
            let tape = tape.into_offsets();
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
            (fingerprint, checkpoints, tape, out)
        }
    };
    Ok(CellRecording {
        spec,
        workload: *workload,
        fingerprint,
        checkpoints,
        tape,
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

/// Refuses an accurate-tier cell whose own fields contradict each
/// other: a tape whose length is not `fingerprint.requests` or whose
/// offsets sum past [`Picos::CEILING`] (each one adds to an agent
/// clock), and a checkpoint list that does not start at request 0, does
/// not strictly ascend, or runs past `fingerprint.requests`.
fn check_cell(rec: &CellRecording, cell: &str) -> Result<(), ReplayError> {
    let bad = |field: String, detail: String| {
        Err(ReplayError::BadRecording {
            cell: cell.to_string(),
            field,
            detail,
        })
    };
    let requests = rec.fingerprint.requests;
    if rec.tape.len() as u64 != requests {
        let detail = format!(
            "holds {} completions but `fingerprint.requests` is {requests}",
            rec.tape.len()
        );
        return bad("tape".into(), detail);
    }
    let ceiling = Picos::CEILING.as_ps();
    let sum = rec.tape.iter().try_fold(0u64, |sum, t| {
        sum.checked_add(t.as_ps()).filter(|&s| s <= ceiling)
    });
    if sum.is_none() {
        return bad(
            "tape".into(),
            "offsets sum past the 2^62 ps clock ceiling".into(),
        );
    }
    let mut floor = None;
    for (i, c) in rec.checkpoints.iter().enumerate() {
        let n = c.requests;
        let why = match floor {
            None if n != 0 => "the first checkpoint is at request 0".to_string(),
            Some(prev) if n <= prev => format!("not past `checkpoints[{}].requests` {prev}", i - 1),
            _ if n > requests => format!("past `fingerprint.requests` {requests}"),
            _ => {
                floor = Some(n);
                continue;
            }
        };
        return bad(
            format!("checkpoints[{i}].requests"),
            format!("is {n}, {why}"),
        );
    }
    if floor.is_none() {
        let detail = "is empty; a request stream starts with a checkpoint at request 0";
        return bad("checkpoints".into(), detail.into());
    }
    Ok(())
}

fn missed(cell: &str, field: String, recorded: u64, landed: u64) -> ReplayError {
    ReplayError::MissedCount {
        cell: cell.to_string(),
        field,
        recorded,
        landed,
    }
}

/// Crosses every recorded checkpoint from `next` on that lies at or
/// before the cursor's request count. Call boundaries are
/// deterministic, so the replay must land on exactly each recorded
/// count, with exactly its digest, and never pass the run's count.
fn cross(
    rec: &CellRecording,
    cell: &str,
    next: &mut usize,
    cur: &ScheduleCursor,
) -> Result<(), ReplayError> {
    let landed = cur.mem_requests();
    if landed > rec.fingerprint.requests {
        let field = "fingerprint.requests".to_string();
        return Err(missed(cell, field, rec.fingerprint.requests, landed));
    }
    while let Some(c) = rec.checkpoints.get(*next).filter(|c| c.requests <= landed) {
        if c.requests < landed {
            let field = format!("checkpoints[{next}].requests");
            return Err(missed(cell, field, c.requests, landed));
        }
        if c.stream != cur.stream_fingerprint() {
            return Err(ReplayError::Divergence {
                cell: cell.to_string(),
                at_requests: landed,
                on: Diverged::Stream,
                expected: c.stream,
                got: cur.stream_fingerprint(),
            });
        }
        *next += 1;
    }
    Ok(())
}

/// Rebuilds a recorded cell's workload and system and runs phases 1–2,
/// after checking `params` and the workload size and proving the
/// rebuilt traces content-address matches the recording.
fn reprepare(
    rec: &CellRecording,
    params: &SystemParams,
    label: &str,
) -> Result<(PreparedRun, Arc<BuiltWorkload>), ReplayError> {
    params.validate()?;
    rec.workload.validate()?;
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
    Ok((prepare_phases(sys, &built, params, None), built))
}

/// Finishes a replayed cell like the straight run and compares its
/// report's fingerprint with the recorded one.
fn check_report(
    rec: &CellRecording,
    label: &str,
    prep: PreparedRun,
    built: &BuiltWorkload,
    exec: ExecReport,
) -> Result<(), ReplayError> {
    let armed = rec.spec.faults.is_some();
    let out = finalize_run(rec.outcome.system.clone(), prep, built, None, armed, exec);
    let got = report_fingerprint(&out);
    if got != rec.fingerprint.report {
        return Err(ReplayError::ReportMismatch {
            cell: label.to_string(),
            expected: rec.fingerprint.report,
            got,
        });
    }
    Ok(())
}

/// Replays one cell's request window `[window.start, window.end)`:
/// runs the schedule on the tape up to the checkpoint at or before the
/// window start, restores the backend's image there, and runs on
/// against the backend until the window end (or the end of the run),
/// comparing every completion with the tape. Every recorded checkpoint
/// crossed on the way must land on its request count with its stream
/// digest. A replay that reaches the end of the run also re-verifies
/// the final stream digest and the report fingerprint.
///
/// # Errors
///
/// [`ReplayError::BadRecording`] when the cell's tape or checkpoint
/// list contradicts its fingerprint; [`ReplayError::Divergence`] at the
/// first completion or stream digest that is not reproduced, and
/// [`ReplayError::MissedCount`] when the replay never lands on a
/// recorded request count; [`ReplayError::NoRequestStream`] for
/// analytic-tier cells; [`ReplayError::BadWindow`] for an empty window
/// or one that starts past the recorded stream; [`ReplayError::Spec`]
/// for malformed `params`; [`ReplayError::Workload`] for a workload size
/// no kernel builds; plus the composition/restore errors.
pub fn replay_window(
    rec: &CellRecording,
    params: &SystemParams,
    window: Range<u64>,
) -> Result<WindowReport, ReplayError> {
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
    check_cell(rec, &label)?;
    // The list starts at request 0 and ascends.
    let resume = rec
        .checkpoints
        .iter()
        .rposition(|c| c.requests <= window.start)
        .unwrap_or(0);
    let ckpt = &rec.checkpoints[resume];

    let (mut prep, built) = reprepare(rec, params, &label)?;
    let sched = workloads::cache::schedule_for(&built, prep.cfg.l1, prep.cfg.l2);
    let accel = Accelerator::new(prep.cfg);
    let mut next = 0;
    let mut tape = Tape::new(rec.tape.clone(), None);
    let mut cur = accel.schedule_cursor(prep.exec_start, &sched, &mut tape);
    cross(rec, &label, &mut next, &cur)?;
    while cur.mem_requests() < ckpt.requests && accel.advance_slice(&mut cur, &sched, &mut tape) {
        cross(rec, &label, &mut next, &cur)?;
    }
    if cur.mem_requests() != ckpt.requests {
        // The run ended short of the resume point.
        let field = format!("checkpoints[{resume}].requests");
        return Err(missed(&label, field, ckpt.requests, cur.mem_requests()));
    }
    prep.sys.backend.restore_state(&ckpt.backend)?;
    tape.real = Some(prep.sys.backend.as_mut());
    while cur.mem_requests() < window.end && accel.advance_slice(&mut cur, &sched, &mut tape) {
        if let Some((request, recorded, replayed)) = tape.mismatch {
            return Err(ReplayError::Divergence {
                cell: label,
                at_requests: request,
                on: Diverged::Completion,
                expected: recorded.as_ps(),
                got: replayed.as_ps(),
            });
        }
        cross(rec, &label, &mut next, &cur)?;
    }

    let completed = cur.is_done();
    if completed {
        if cur.mem_requests() != rec.fingerprint.requests {
            let field = "fingerprint.requests".to_string();
            return Err(missed(
                &label,
                field,
                rec.fingerprint.requests,
                cur.mem_requests(),
            ));
        }
        if cur.stream_fingerprint() != rec.fingerprint.stream {
            return Err(ReplayError::Divergence {
                cell: label,
                at_requests: rec.fingerprint.requests,
                on: Diverged::Stream,
                expected: rec.fingerprint.stream,
                got: cur.stream_fingerprint(),
            });
        }
        let exec = accel.finish_schedule(&cur, &sched);
        check_report(rec, &label, prep, &built, exec)?;
    }
    Ok(WindowReport {
        cell: label,
        resumed_at: ckpt.requests,
        replayed_to: cur.mem_requests(),
        verified_checkpoints: next - resume - 1,
        completed,
    })
}

/// Fully re-verifies one cell: accurate-tier cells replay the whole
/// stream from the request-zero checkpoint (comparing every completion
/// with the tape and crossing every recorded checkpoint, the final
/// stream digest, and the report fingerprint); analytic-tier cells
/// re-run the closed form and compare report fingerprints.
///
/// # Errors
///
/// Same as [`replay_window`], minus the window errors.
pub fn verify_cell(
    rec: &CellRecording,
    params: &SystemParams,
) -> Result<WindowReport, ReplayError> {
    match rec.spec.tier {
        FidelityTier::Accurate => replay_window(rec, params, 0..u64::MAX),
        FidelityTier::Analytic => {
            let label = cell_label(rec);
            let (prep, built) = reprepare(rec, params, &label)?;
            let exec = ExecModel::for_spec(&rec.spec, &built, params)?.exec(&prep.cfg);
            check_report(rec, &label, prep, &built, exec)?;
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

/// Checks a recording's schema version. [`Recording`]'s decoder checks
/// it before reading any other key.
///
/// # Errors
///
/// [`ReplayError::UnsupportedVersion`] when the recording was written by
/// an incompatible build.
pub fn check_version(version: u32) -> Result<(), ReplayError> {
    if version != RECORDING_VERSION {
        return Err(ReplayError::UnsupportedVersion {
            expected: RECORDING_VERSION,
            got: version,
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
    check_version(rec.version)?;
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
    check_version(rec.version)?;
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
    fn tampered_checkpoint_digest_fails_the_tape_prefix() {
        // The window resumes at checkpoint 1; the prefix run over the
        // tape lands on it and finds another digest.
        let (mut rec, params) = recorded();
        let mid = rec.checkpoints[1].requests;
        rec.checkpoints[1].stream ^= 1;
        let err = replay_window(&rec, &params, mid..(mid + 1)).unwrap_err();
        assert!(
            matches!(
                err,
                ReplayError::Divergence {
                    on: Diverged::Stream,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn a_forged_completion_fails_verify_and_windows_at_its_request() {
        // One offset 1 ps late: the backend completes that request
        // otherwise, so the full verify and a window resuming before it
        // both name its index.
        let (mut rec, params) = recorded();
        let mid = rec.checkpoints[1].requests;
        let forged = mid + 3;
        rec.tape[forged as usize] += Picos::from_ps(1);
        for result in [
            verify_cell(&rec, &params),
            replay_window(&rec, &params, mid..u64::MAX),
        ] {
            match result {
                Err(ReplayError::Divergence {
                    at_requests,
                    on: Diverged::Completion,
                    expected,
                    got,
                    ..
                }) => {
                    assert_eq!(at_requests, forged);
                    assert_eq!(expected, got + 1);
                }
                other => panic!("expected a completion divergence, got {other:?}"),
            }
        }
    }

    #[test]
    fn contradictory_tapes_and_checkpoint_lists_are_refused_by_field() {
        let (rec, params) = recorded();
        type Forge = dyn Fn(&mut CellRecording);
        let cases: [(&str, &Forge); 6] = [
            ("`tape` holds", &|r| {
                r.tape.pop();
            }),
            ("offsets sum past", &|r| {
                r.tape[0] = Picos::CEILING;
                r.tape[1] = Picos::CEILING;
            }),
            ("`checkpoints[0].requests` is 5", &|r| {
                r.checkpoints[0].requests = 5
            }),
            ("`checkpoints[2].requests`", &|r| r.checkpoints.swap(1, 2)),
            ("`checkpoints[1].requests` is 1000000000000, past", &|r| {
                r.checkpoints[1].requests = 1_000_000_000_000
            }),
            ("`checkpoints` is empty", &|r| r.checkpoints.clear()),
        ];
        for (needle, forge) in cases {
            let mut bad = rec.clone();
            forge(&mut bad);
            let err = verify_cell(&bad, &params).unwrap_err();
            assert!(
                matches!(err, ReplayError::BadRecording { .. }) && err.to_string().contains(needle),
                "{needle}: {err}"
            );
        }
        // A count inside one request batch: the replay steps past it,
        // and the error names both counts. A checkpoint taken past its
        // cadence target sits right after a batch of several requests,
        // so its count less one is no boundary.
        let (spec, w, _) = small();
        let every = 7;
        let rec = record_cell(
            SystemId::Preset(SystemKind::DramLess),
            &spec,
            &w,
            &params,
            every,
        )
        .unwrap();
        let counts: Vec<u64> = rec.checkpoints.iter().map(|c| c.requests).collect();
        let i = (1..counts.len())
            .find(|&i| counts[i] > counts[i - 1] + every)
            .expect("some batch holds several requests");
        let mut bad = rec.clone();
        bad.checkpoints[i].requests -= 1;
        match verify_cell(&bad, &params) {
            Err(ReplayError::MissedCount {
                field,
                recorded,
                landed,
                ..
            }) => {
                assert_eq!(field, format!("checkpoints[{i}].requests"));
                assert_eq!((recorded, landed), (counts[i] - 1, counts[i]));
            }
            other => panic!("expected a missed count, got {other:?}"),
        }
    }

    #[test]
    fn tampered_backend_image_diverges_downstream() {
        let (mut rec, params) = recorded();
        // Swap in the request-zero backend image: the envelope is valid
        // and the tape prefix lands on the checkpoint, but the device
        // timeline is behind — replay must catch the divergence, not run
        // through.
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
        // A file of another version is refused by its version before any
        // key of its layout is read.
        let text = r#"{"version": 1, "cells": [{"checkpoints": [{"exec": {}}]}]}"#;
        let err = Recording::from_json_str(text).unwrap_err().to_string();
        assert!(err.contains("version v1 is not the v2"), "{err}");
    }
}
