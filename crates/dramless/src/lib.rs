#![warn(missing_docs)]

//! # dramless
//!
//! The top-level crate of the DRAM-less reproduction: it composes the
//! substrate crates into the **eleven accelerated-system configurations**
//! the paper evaluates (Table I, plus the "DRAM-less (firmware)" and
//! "ideal" reference points), runs the Polybench-derived workloads on
//! them, and produces the measurements behind every figure:
//!
//! * [`config`] — [`SystemKind`] presets, [`SystemId`] report
//!   identities and tunable [`SystemParams`];
//! * [`spec`] — the declarative [`SystemSpec`] composition layer: any
//!   medium × datapath × buffer × control point in the architecture
//!   space, as serializable plain data ([`SystemKind::spec`] names the
//!   twelve presets);
//! * [`system`] — the [`system::build_system`] factory and the single
//!   phase-driven runner every configuration goes through (kernel
//!   offload → optional staging → execution → writeback);
//! * [`report`] — [`RunOutcome`] with time decomposition, energy ledger
//!   and derived metrics, plus suite-sweep helpers;
//! * [`sweep`] — the sweep engine: every `config × workload` cell is
//!   one item of a [`util::pool`] map, and cells start cost-descending
//!   from the pool's one shared cursor, with byte-identical output at
//!   any thread count (`DRAMLESS_THREADS`). Custom specs get
//!   the same engine via [`sweep::sweep_specs`];
//! * [`paper`] — the paper's evaluation from one set of runs: every
//!   figure and table as JSON, and [`paper::CLAIMS`], the one table of
//!   the paper's numbers and the bands they must meet.
//!
//! # Quick start
//!
//! ```
//! use dramless::{simulate, SystemKind, SystemParams};
//! use workloads::{Kernel, Scale, Workload};
//!
//! // A non-degenerate footprint so capacity pressure is in play.
//! let w = Workload::of(Kernel::Gemver, Scale(0.8));
//! let dl = simulate(SystemKind::DramLess, &w, &SystemParams::default());
//! let het = simulate(SystemKind::Hetero, &w, &SystemParams::default());
//! assert!(dl.bandwidth() > het.bandwidth());
//! ```
//!
//! # Composing a system the paper never built
//!
//! ```
//! use dramless::{simulate_spec, Buffer, Datapath, SystemKind, SystemParams, SystemSpec};
//! use workloads::{Kernel, Scale, Workload};
//!
//! // Table I's Hetero, but staged over peer-to-peer DMA with TLC flash.
//! let spec = SystemSpec {
//!     name: Some("tlc-p2p".into()),
//!     datapath: Datapath::P2pDma,
//!     medium: dramless::Medium::FlashSsd { cell: flash::CellKind::Tlc },
//!     ..SystemKind::Hetero.spec()
//! };
//! let w = Workload::of(Kernel::Trisolv, Scale(0.1));
//! let out = simulate_spec(&spec, &w, &SystemParams::default()).unwrap();
//! assert!(out.bandwidth() > 0.0);
//! assert_eq!(out.system.name(), "tlc-p2p");
//! ```

pub mod analytic;
pub mod config;
pub mod fleet;
pub mod paper;
pub mod replay;
pub mod report;
pub mod spec;
pub mod sweep;
pub mod system;
pub mod traffic;

pub use config::{SystemId, SystemKind, SystemParams};
pub use fleet::{run_fleet, run_fleet_on, BalancerKind, FleetReport, FleetSpec};
pub use replay::{CellRecording, Checkpoint, Recording, ReplayError, RunFingerprint, WindowReport};
pub use report::{Breakdown, RunOutcome, SuiteResult};
pub use sim_core::fault::{FaultCounters, FaultPlan};
pub use sim_core::mem::FidelityTier;
pub use spec::{Buffer, Control, Datapath, Medium, SpecError, SystemSpec, TelemetrySpec};
pub use sweep::{sweep_specs, SweepStats};
pub use system::{
    build_system, simulate, simulate_built, simulate_dramless_scheduler, simulate_spec,
    simulate_spec_built, simulate_spec_traced, ComposedSystem,
};
pub use traffic::{ArrivalGen, ArrivalProcess, ClassMix, QosClass, Request, TenantModel};
