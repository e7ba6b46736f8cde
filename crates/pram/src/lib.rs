#![warn(missing_docs)]

//! # pram
//!
//! A cycle-approximate model of the paper's 3x-nm **multi-partition
//! phase-change memory** (PRAM) device and its LPDDR2-NVM interface.
//!
//! The model reproduces every architectural feature the DRAM-less paper
//! relies on:
//!
//! * **Multi-partition banks** — 16 partitions per bank, each split into
//!   two half-partitions of 64 resistive tiles (2048 bitlines × 4096
//!   wordlines), serving 256-bit (32 B) parallel I/O at bank level
//!   ([`geometry`]).
//! * **Multiple row buffers** — 4 row-address-buffer / row-data-buffer
//!   (RAB/RDB) pairs per module ([`buffers`]).
//! * **Three-phase addressing** — pre-active → activate → read/write
//!   command phases with the exact Table II timing ([`device`],
//!   [`timing`]).
//! * **Overlay window + program buffer** — the register-mapped write path
//!   (command code at `OWBA+0x80`, row address at `OWBA+0x8B`, burst size
//!   at `OWBA+0x93`, execute at `OWBA+0xC0`, program buffer at
//!   `OWBA+0x800`) ([`overlay`]).
//! * **Asymmetric writes** — a program is RESET+SET; overwriting a
//!   programmed word costs 18 µs while a SET-only program of a pristine
//!   word costs 10 µs, which is what makes the paper's *selective erasing*
//!   optimization work ([`cell`]).
//! * **Erase** — a 60 ms partition erase that blocks the partition.
//!
//! The functional state (actual bytes stored) is modeled alongside timing,
//! so tests can verify end-to-end data integrity of every optimization.
//!
//! # Examples
//!
//! ```
//! use pram::{PramModule, PramTiming, BufferId};
//! use sim_core::Picos;
//!
//! let mut module = PramModule::new(PramTiming::table2(), 1);
//! let row = pram::geometry::RowId::new(3, 17);
//!
//! // Three-phase read of an unwritten (pristine) row returns zeros.
//! let pre = module.pre_active(Picos::ZERO, BufferId::B0, row.upper(6));
//! let act = module.activate(pre.end, BufferId::B0, row.lower(6));
//! let (burst, data) =
//!     module.read_burst(act.end, sim_core::Picos::ZERO, BufferId::B0, 0, pram::timing::BurstLen::Bl16);
//! assert_eq!(data, vec![0u8; 32]);
//! assert!(burst.end > sim_core::Picos::ZERO);
//! ```

pub mod buffers;
pub mod cell;
pub mod channel;
pub mod device;
pub mod geometry;
pub mod overlay;
pub mod timing;

pub use buffers::BufferId;
pub use channel::PramChannel;
pub use device::{PhaseTiming, PostedProgram, PramModule, ProtocolError};
pub use geometry::{PartitionId, PramGeometry, RowId};
pub use overlay::OverlayWindow;
pub use timing::{BurstLen, PramTiming, StrobeWindows};
