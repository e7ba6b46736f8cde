#![warn(missing_docs)]

//! # accel
//!
//! The multi-core accelerator model of Figure 6: eight 1 GHz processing
//! elements (PEs), each with two `.M`/`.L`/`.S`/`.D` functional-unit
//! pairs, private L1/L2 caches, a crossbar to the memory controller unit
//! (MCU), and a power/sleep controller (PSC). One PE acts as the
//! **server** — it downloads kernel images, schedules the other PEs
//! (**agents**) and owns the MCU; the agents execute kernels and reach
//! memory through plain load/store instructions.
//!
//! The crate is workload-agnostic: kernels arrive as instruction/memory
//! [`trace`]s (produced by the [`workloads`] crate from real
//! computations) and memory is any [`sim_core::MemoryBackend`] — the PRAM
//! controller for DRAM-less, a buffered flash store for Integrated-*,
//! plain DRAM for the heterogeneous systems, and so on.
//!
//! [`workloads`]: https://docs.rs/workloads

pub mod cache;
pub mod exec;
pub mod kernel;
pub mod pe;
pub mod psc;
pub mod sched;
pub mod trace;

pub use cache::{Cache, CacheConfig, CacheLevelStats};
pub use exec::{AccelConfig, Accelerator, ExecReport};
pub use kernel::{KernelImage, Segment};
pub use pe::{PeConfig, PeStats};
pub use psc::{PeState, PowerSleepController};
pub use sched::{AgentSchedule, MemSchedule};
pub use trace::{InstrBlock, Trace, TraceOp};
