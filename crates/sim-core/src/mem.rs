//! The memory-backend abstraction every data store implements.
//!
//! The accelerator's memory controller unit (MCU) routes L2 misses to
//! whatever backs the configuration under test: the hardware-automated
//! PRAM controller, its firmware-managed variant, an internal DRAM buffer
//! in front of flash, a NOR-interface PRAM, or a host-side storage stack.
//! [`MemoryBackend`] is that seam.
//!
//! Backends are *timing* models: an access returns when it started and
//! when its data became available. Functional data movement (actual
//! bytes) is exposed separately by backends that support it, because the
//! processing-element performance model only consumes timing.

use crate::energy::EnergyBook;
use crate::fault::FaultCounters;
use crate::probe::Probe;
use crate::snapshot::{SnapshotError, StateImage};
use crate::time::Picos;
use util::telemetry::MetricSet;

/// How faithfully a backend (or a whole system) models time.
///
/// * [`FidelityTier::Accurate`] — the cycle-approximate protocol models:
///   every request walks row buffers, buses and program queues.
/// * [`FidelityTier::Analytic`] — closed-form latency/energy estimators
///   whose coefficients are *calibrated* against the accurate tier
///   (`calibrate` bench binary); orders of magnitude faster, drift-bound
///   tested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FidelityTier {
    /// Full protocol-level timing (the default everywhere).
    #[default]
    Accurate,
    /// Calibrated closed-form models.
    Analytic,
}

util::json_enum!(FidelityTier { Accurate, Analytic });

impl FidelityTier {
    /// Lower-case label for CLI flags and report tables.
    pub fn label(self) -> &'static str {
        match self {
            FidelityTier::Accurate => "accurate",
            FidelityTier::Analytic => "analytic",
        }
    }

    /// Parses the CLI spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "accurate" => Some(FidelityTier::Accurate),
            "analytic" => Some(FidelityTier::Analytic),
            _ => None,
        }
    }
}

/// The completed timing of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// When the backend began servicing the access (after queueing).
    pub start: Picos,
    /// When the last byte was delivered / durably accepted.
    pub end: Picos,
}

util::json_struct!(Access { start, end });

impl Access {
    /// An access that completes instantly at `at` (e.g. a buffer hit with
    /// negligible latency at the modeled granularity).
    pub fn instant(at: Picos) -> Self {
        Access { start: at, end: at }
    }

    /// Service latency (queueing excluded).
    pub fn service(&self) -> Picos {
        self.end - self.start
    }

    /// Latency relative to issue time `at` (queueing included).
    pub fn latency_from(&self, at: Picos) -> Picos {
        self.end.saturating_sub(at)
    }
}

/// One request of a batched backend stream ([`MemoryBackend::run_stream`]).
///
/// The engine folds the cache-hit service time that elapses *between*
/// backend requests into the next request's `advance`, so a whole memory
/// operation (hits, fills and posted write-backs interleaved in issue
/// order) crosses the backend boundary as one slice instead of one
/// virtual call per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOp {
    /// Engine-side time to elapse before this request issues (cache-hit
    /// service accumulated since the previous request).
    pub advance: Picos,
    /// Line-aligned request address.
    pub addr: u64,
    /// `true` — a posted write-back through the MCU write queue;
    /// `false` — a blocking line fill (read).
    pub write: bool,
}

/// A device (or device stack) that services byte-addressed reads/writes
/// with simulated timing.
///
/// Lengths are in bytes; addresses are within the backend's own space.
/// Implementations must be deterministic for a fixed construction seed.
pub trait MemoryBackend {
    /// Services a read of `len` bytes at `addr`, issued at `at`.
    fn read(&mut self, at: Picos, addr: u64, len: u32) -> Access;

    /// Services a write of `len` bytes at `addr`, issued at `at`.
    fn write(&mut self, at: Picos, addr: u64, len: u32) -> Access;

    /// Advance notice that `addrs` will be overwritten soon — the
    /// *selective erasing* hint (§V-A). Backends without the optimization
    /// ignore it.
    fn announce_overwrites(&mut self, _at: Picos, _addrs: &[u64]) {}

    /// Services a batch of line requests in issue order, returning the
    /// agent's clock after the last one.
    ///
    /// Semantics are pinned to the per-op trace walk (the reference
    /// implementation, kept as a test-only walker in `accel::exec`):
    ///
    /// * a read is a blocking fill — the clock advances to the access
    ///   end plus the crossbar hop `xbar`;
    /// * a write is *posted* through the MCU write queue `wq` (one entry
    ///   per queue slot holding the cycle that slot frees): the request
    ///   takes the first earliest-free slot, issues at
    ///   `max(now, free_at)`, and the agent only stalls until `free_at`.
    ///
    /// The default implementation simply loops over [`Self::read`] /
    /// [`Self::write`] — one virtual call for the whole slice instead of
    /// one per request, with the inner calls statically dispatched when
    /// the backend type is concrete. Backends may override with a fused
    /// path as long as the result stays bit-identical; the equivalence is
    /// pinned by tests.
    fn run_stream(
        &mut self,
        mut now: Picos,
        line: u32,
        xbar: Picos,
        ops: &[StreamOp],
        wq: &mut [Picos],
    ) -> Picos {
        // Step the attribution cursor between ops so the records the
        // inner read/write calls commit keep the per-op backend-request
        // ordinals (`replay --window` units). The issuer tags the batch
        // base ordinal before calling in; timing is untouched.
        for (i, op) in ops.iter().enumerate() {
            if i > 0 {
                self.probe().attr_advance();
            }
            now += op.advance;
            if op.write {
                // First earliest-free slot (`min_by_key` semantics: strict
                // `<` keeps the first minimum on ties).
                let mut slot = 0;
                for i in 1..wq.len() {
                    if wq[i] < wq[slot] {
                        slot = i;
                    }
                }
                let free_at = wq[slot];
                let issue = now.max(free_at);
                wq[slot] = self.write(issue, op.addr, line).end;
                now = now.max(free_at);
            } else {
                now = self.read(now, op.addr, line).end + xbar;
            }
        }
        now
    }

    /// Snapshot of the energy this backend has charged so far.
    fn energy(&self) -> EnergyBook;

    /// A short human-readable backend name for reports.
    fn label(&self) -> &'static str;

    /// Installs a telemetry probe. Backends without instrumentation
    /// points ignore it; the default probe everywhere is disabled, so
    /// uninstrumented backends simply record nothing.
    fn set_probe(&mut self, _probe: Probe) {}

    /// The probe installed by [`set_probe`](Self::set_probe).
    /// Instrumented backends override so the batched
    /// [`run_stream`](Self::run_stream) path can step the
    /// latency-attribution cursor between requests; the default is the
    /// disabled probe (a no-op cursor).
    fn probe(&self) -> &Probe {
        Probe::disabled_ref()
    }

    /// Contributes this backend's end-of-run metrics (hit/miss
    /// counters, occupancy gauges) into `out`. Uninstrumented backends
    /// contribute nothing.
    fn collect_metrics(&self, _out: &mut MetricSet) {}

    /// Contributes this backend's fault-injection ledger into `out`.
    /// Backends without fault modeling (or with no plan attached)
    /// contribute nothing.
    fn collect_faults(&self, _out: &mut FaultCounters) {}

    /// Which fidelity tier this backend's timings come from. Every
    /// protocol-level model reports [`FidelityTier::Accurate`] (the
    /// default); calibrated closed-form backends override.
    fn tier(&self) -> FidelityTier {
        FidelityTier::Accurate
    }

    /// Serializes the backend's complete mutable state: the one way a
    /// backend images itself (see [`crate::snapshot`]).
    ///
    /// # Errors
    ///
    /// The default implementation reports the backend as
    /// [`SnapshotError::Unsupported`]; every shipping backend
    /// overrides, test doubles need not.
    fn snapshot_state(&self) -> Result<StateImage, SnapshotError> {
        Err(SnapshotError::unsupported(self.label()))
    }

    /// Restores state previously captured by
    /// [`MemoryBackend::snapshot_state`] on an identically constructed
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on kind/version mismatch, malformed
    /// payloads, an image this backend's configuration does not build
    /// ([`SnapshotError::ShapeMismatch`], refused before the backend's
    /// own fields change), or (the default) an unsupporting backend.
    fn restore_state(&mut self, _image: &StateImage) -> Result<(), SnapshotError> {
        Err(SnapshotError::unsupported(self.label()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_latencies() {
        let a = Access {
            start: Picos::from_ns(10),
            end: Picos::from_ns(50),
        };
        assert_eq!(a.service(), Picos::from_ns(40));
        assert_eq!(a.latency_from(Picos::from_ns(5)), Picos::from_ns(45));
        // Completion before issue clamps to zero rather than underflowing.
        assert_eq!(a.latency_from(Picos::from_ns(60)), Picos::ZERO);
    }

    #[test]
    fn instant_access() {
        let a = Access::instant(Picos::from_us(3));
        assert_eq!(a.service(), Picos::ZERO);
        assert_eq!(a.start, a.end);
    }

    struct FixedMem;
    impl MemoryBackend for FixedMem {
        fn read(&mut self, at: Picos, _addr: u64, _len: u32) -> Access {
            Access {
                start: at,
                end: at + Picos::from_ns(100),
            }
        }
        fn write(&mut self, at: Picos, _addr: u64, _len: u32) -> Access {
            Access {
                start: at,
                end: at + Picos::from_ns(400),
            }
        }
        fn energy(&self) -> EnergyBook {
            EnergyBook::new()
        }
        fn label(&self) -> &'static str {
            "fixed"
        }
    }

    #[test]
    fn stream_matches_per_op_reference() {
        let ops = [
            StreamOp {
                advance: Picos::from_ns(10),
                addr: 0,
                write: false,
            },
            StreamOp {
                advance: Picos::ZERO,
                addr: 64,
                write: true,
            },
            StreamOp {
                advance: Picos::from_ns(5),
                addr: 128,
                write: true,
            },
            StreamOp {
                advance: Picos::ZERO,
                addr: 192,
                write: true,
            },
            StreamOp {
                advance: Picos::from_ns(1),
                addr: 0,
                write: false,
            },
        ];
        let xbar = Picos::from_ns(30);

        // Reference: per-op walk with an explicit first-min write queue.
        let mut m = FixedMem;
        let mut wq = [Picos::ZERO; 2];
        let mut now = Picos::ZERO;
        for op in &ops {
            now += op.advance;
            if op.write {
                let slot = (0..wq.len()).min_by_key(|&i| wq[i]).unwrap();
                let free_at = wq[slot];
                wq[slot] = m.write(now.max(free_at), op.addr, 64).end;
                now = now.max(free_at);
            } else {
                now = m.read(now, op.addr, 64).end + xbar;
            }
        }

        let mut m2 = FixedMem;
        let mut wq2 = [Picos::ZERO; 2];
        let got = m2.run_stream(Picos::ZERO, 64, xbar, &ops, &mut wq2);
        assert_eq!(got, now);
        assert_eq!(wq2, wq);
    }
}
