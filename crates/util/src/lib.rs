//! Zero-dependency support library for the DRAM-less workspace.
//!
//! Everything the simulator previously pulled from crates.io lives here
//! as a small, auditable in-tree implementation, so the whole workspace
//! builds and tests with `--offline` on a machine that has never seen a
//! registry:
//!
//! * [`json`] — a JSON value type, writer, parser and the
//!   [`ToJson`](json::ToJson)/[`FromJson`](json::FromJson) traits with
//!   the [`json_struct!`], [`json_enum!`] and [`json_newtype!`]
//!   derive macros (replaces `serde`/`serde_json`);
//! * [`rng`] — a seeded SplitMix64/xoshiro256++ generator (replaces
//!   `rand`);
//! * [`fingerprint`] — the shared 64-bit FNV-1a accumulator behind
//!   every content fingerprint (trace streams, schedule cache keys,
//!   record/replay run commitments);
//! * [`fxhash`] — the deterministic Fx hasher behind the simulators'
//!   integer-keyed hot-path maps;
//! * [`pow2`] — shift/mask division for runtime divisors that are
//!   powers of two (the PRAM address path);
//! * [`cases`] — the [`for_each_case!`] seeded case generator
//!   (replaces `proptest`);
//! * [`pool`] — [`Pool::map`](pool::Pool::map), a parallel map on
//!   scoped threads with item-order results and panic propagation
//!   (replaces `rayon`); sized by the `DRAMLESS_THREADS` environment
//!   variable.
//! * [`telemetry`] — trace events, a bounded ring-buffer tracer, a
//!   sorted metric registry and a Chrome trace-event exporter (the
//!   unit-agnostic core under `sim_core::probe`).

pub mod cases;
pub mod fingerprint;
pub mod fxhash;
pub mod json;
pub mod pool;
pub mod pow2;
pub mod rng;
pub mod telemetry;
