#![warn(missing_docs)]

//! # sim-core
//!
//! Discrete-event simulation substrate shared by every crate in the
//! DRAM-less reproduction.
//!
//! Its main building blocks:
//!
//! * [`time`] — a picosecond-resolution simulated clock ([`Picos`]) with
//!   exact representations of the paper's LPDDR2-NVM timing parameters
//!   (e.g. `tCK = 2.5 ns = 2500 ps`).
//! * [`timeline`] — resource-occupancy timelines ([`Timeline`]) used by the
//!   memory/storage subsystems to compute contention and overlap without a
//!   full event queue.
//! * [`stats`] / [`energy`] — time-series and per-component energy
//!   accounting used to regenerate the paper's figures.
//! * [`probe`] — the runtime-switchable telemetry facade ([`Probe`] /
//!   [`Telemetry`]) over [`util::telemetry`]; disabled probes cost one
//!   `Option` check per call site.
//! * [`snapshot`] — the versioned [`StateImage`]s behind deterministic
//!   record/replay: a backend checkpoints its complete state through
//!   [`MemoryBackend::snapshot_state`] and resumes byte-identically
//!   through [`MemoryBackend::restore_state`], which refuses an image
//!   its configuration does not build.
//!
//! # Examples
//!
//! ```
//! use sim_core::time::Picos;
//!
//! let tck = Picos::from_ns_f64(2.5);
//! assert_eq!(tck.as_ps(), 2_500);
//! // A read preamble of RL = 6 cycles:
//! assert_eq!((tck * 6).as_ns_f64(), 15.0);
//! ```

pub mod energy;
pub mod fault;
pub mod mem;
pub mod probe;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod time;
pub mod timeline;

pub use energy::{EnergyAccount, EnergyBook, Joules, Watts};
pub use fault::{FaultCounters, FaultPlan, PramFaults, ResiliencePolicy, SsdFaults};
pub use mem::{Access, FidelityTier, MemoryBackend};
pub use probe::{Probe, Telemetry};
pub use rng::SimRng;
pub use snapshot::{SnapshotError, StateImage};
pub use stats::TimeSeries;
pub use time::Picos;
pub use timeline::Timeline;
