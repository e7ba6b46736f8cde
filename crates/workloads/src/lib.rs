#![warn(missing_docs)]

//! # workloads
//!
//! The paper's evaluation suite: 15 Polybench-derived kernels (§VI,
//! Table III), implemented as **real computations** whose array accesses
//! are instrumented to produce per-agent [`accel::Trace`]s.
//!
//! Each kernel exists once, written against the [`recorder::Recorder`]
//! abstraction: running it with a [`recorder::NullRecorder`] yields the
//! reference result (tested against mathematical properties), and running
//! it with a [`recorder::TraceRecorder`] additionally yields the
//! per-agent address/instruction streams the accelerator model replays.
//! Read/write mixes are therefore the kernels' true mixes, which is what
//! the Fig. 13 write-ratio circles and the read-/write-intensive
//! groupings of §VI-A derive from.
//!
//! Kernel sizes are scaled down from the paper's ≥10×-Polybench volumes
//! so a full 10-config × 15-workload sweep runs in seconds; the
//! [`suite::Scale`] multiplier controls this.

pub mod cache;
pub mod kernels;
pub mod recorder;
pub mod suite;

pub use recorder::{NullRecorder, Recorder, TraceRecorder};
pub use suite::{Kernel, Scale, SizeError, Workload, WorkloadCharacter};
