#![warn(missing_docs)]

//! # pram-ctrl
//!
//! The FPGA-based PRAM controller of the DRAM-less paper (§III-B, §V),
//! modeled against the [`pram`] device crate.
//!
//! The controller is the paper's central hardware contribution. It:
//!
//! * translates plain read/write requests from the accelerator's MCU into
//!   LPDDR2-NVM **three-phase addressing** transactions ([`cmdgen`]),
//!   **selectively skipping** the pre-active phase on a RAB hit and the
//!   activate phase on an RDB hit;
//! * drives writes through the **overlay window / program buffer**
//!   register sequence of §V-B ([`controller`]);
//! * schedules requests with the two paper optimizations — *multi-resource
//!   aware interleaving* and *selective erasing* — or without them, per
//!   the Fig. 13 ablation ([`sched`]);
//! * brings modules up through an **initializer** and crosses the
//!   FPGA/PRAM frequency domains through a 400 MHz **PHY** ([`phy`]);
//! * optionally applies **start-gap wear leveling** ([`wear`]), the
//!   lifetime extension the paper folds in from related work.
//!
//! A firmware-managed alternative ([`firmware`]) reproduces the
//! "DRAM-less (firmware)" baseline: the same datapath, but every request
//! is first serviced by firmware running on a 3-core 500 MHz embedded CPU,
//! which is what Figs. 7 and 15 show to be the bottleneck.
//!
//! # Examples
//!
//! ```
//! use pram_ctrl::{PramController, SubsystemConfig, SchedulerKind};
//! use sim_core::{MemoryBackend, Picos};
//!
//! let cfg = SubsystemConfig::paper(SchedulerKind::Final, 1);
//! let mut ctrl = PramController::new(cfg);
//! let w = ctrl.write(Picos::ZERO, 0x1000, 512);
//! let r = ctrl.read(w.end, 0x1000, 512);
//! assert!(r.end > r.start);
//! ```

pub mod addr;
pub mod cmdgen;
pub mod controller;
pub mod firmware;
pub mod phy;
pub mod resilience;
pub mod sched;
pub mod wear;

pub use addr::{AddressMap, Target};
pub use cmdgen::{plan_read, ReadPlan};
pub use controller::{CtrlStats, PramController, SubsystemConfig};
pub use firmware::{FirmwareController, FirmwareParams};
pub use phy::{InitReport, Phy, PhyParams};
pub use resilience::{EccModel, EccOutcome, RetireMap, RetryPolicy};
pub use sched::SchedulerKind;
pub use wear::StartGap;
