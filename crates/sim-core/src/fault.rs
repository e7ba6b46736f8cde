//! Deterministic fault injection: plans, fault domains and degradation
//! counters.
//!
//! A [`FaultPlan`] is a JSON-serializable description of *which*
//! failure modes to inject and *how hard*, plus the resilience policy
//! (ECC strength, retry budget, retirement thresholds) the controller
//! uses to absorb them. It rides on the system spec the same way the
//! telemetry knob does: absent by default, and inert when every rate is
//! zero.
//!
//! Determinism is the whole point. Fault decisions are never drawn from
//! a shared stateful generator (whose draw order would depend on event
//! interleaving); instead every decision hashes
//! `(plan.seed, domain, component labels..., trial index)` through
//! [`util::rng::stream_seed`] and compares the resulting uniform value
//! against the configured rate. Two consequences fall out for free:
//!
//! * **Thread-count invariance** — the same access makes the same draw
//!   no matter when it is simulated, so sweep reports are byte-identical
//!   at any worker count.
//! * **Monotonicity** — raising a rate turns a *superset* of the same
//!   fixed trial values into faults, so degradation (retries, latency)
//!   is monotone in the configured rates, which the fault-matrix test
//!   asserts exactly rather than statistically.

use crate::time::Picos;

/// Stable label constants naming each fault domain in the stream-seed
/// path. Changing a value silently reshuffles every draw, so these are
/// append-only.
pub mod domain {
    /// PRAM resistance-drift bit errors on word reads.
    pub const DRIFT: u64 = 1;
    /// PRAM read-disturb bit errors (scale with reads since last write).
    pub const DISTURB: u64 = 2;
    /// Row-data-buffer corruption on read-out.
    pub const RDB: u64 = 3;
    /// SET/RESET program failures.
    pub const PROGRAM: u64 = 4;
    /// SSD/flash transient read failures.
    pub const SSD_READ: u64 = 5;
}

/// PRAM-medium fault rates. All rates are per-trial probabilities in
/// `[0, 1]`; zero disables the mode.
#[derive(Debug, Clone, PartialEq)]
pub struct PramFaults {
    /// Per-trial probability of a resistance-drift bit error on a word
    /// read. Each read runs `ecc_strength + 2` independent drift trials,
    /// so multi-bit (uncorrectable) patterns are reachable.
    pub drift_rate: f64,
    /// Peak per-read probability of a read-disturb bit error, reached
    /// after [`PramFaults::disturb_window`] reads without an intervening
    /// write to the line.
    pub read_disturb_rate: f64,
    /// Reads-since-last-write over which disturb probability ramps
    /// linearly from 0 to `read_disturb_rate`.
    pub disturb_window: u64,
    /// Per-partition rate multipliers; partition `p` uses
    /// `multipliers[p % len]`. Empty means uniform (×1.0) everywhere.
    pub partition_multipliers: Vec<f64>,
    /// Physical write count after which a line becomes stuck-at (every
    /// read is uncorrectable until the line is retired). Zero disables
    /// wear-out. Counts are per *physical* slot, after start-gap
    /// rotation, so wear leveling genuinely delays onset.
    pub stuck_at_threshold: u64,
    /// Per-program probability that a SET/RESET pulse fails and must be
    /// re-issued.
    pub program_failure_rate: f64,
    /// Per-read probability that the row-data buffer delivers a
    /// corrupted word (always uncorrectable; forces a re-sense).
    pub rdb_corruption_rate: f64,
}

util::json_struct!(PramFaults {
    drift_rate,
    read_disturb_rate,
    disturb_window,
    partition_multipliers,
    stuck_at_threshold,
    program_failure_rate,
    rdb_corruption_rate,
});

impl Default for PramFaults {
    fn default() -> Self {
        PramFaults {
            drift_rate: 0.0,
            read_disturb_rate: 0.0,
            disturb_window: 64,
            partition_multipliers: Vec::new(),
            stuck_at_threshold: 0,
            program_failure_rate: 0.0,
            rdb_corruption_rate: 0.0,
        }
    }
}

impl PramFaults {
    /// The drift/disturb rate multiplier for `partition`.
    pub fn partition_multiplier(&self, partition: usize) -> f64 {
        if self.partition_multipliers.is_empty() {
            1.0
        } else {
            self.partition_multipliers[partition % self.partition_multipliers.len()]
        }
    }

    /// True if no PRAM fault mode can fire.
    pub fn is_inert(&self) -> bool {
        self.drift_rate == 0.0
            && self.read_disturb_rate == 0.0
            && self.stuck_at_threshold == 0
            && self.program_failure_rate == 0.0
            && self.rdb_corruption_rate == 0.0
    }
}

/// SSD/flash fault rates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SsdFaults {
    /// Per-request probability that a device read fails transiently and
    /// must be replayed by the SSD controller.
    pub transient_read_rate: f64,
}

util::json_struct!(SsdFaults {
    transient_read_rate
});

/// The controller-side resilience policy: how injected faults are
/// absorbed before they could become wrong results.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// ECC symbol strength: up to this many bit errors per word are
    /// corrected in place; more is uncorrectable and triggers retry.
    pub ecc_strength: u32,
    /// Maximum re-reads (or re-programs) before a line is declared
    /// failing. The retry path is bounded by construction.
    pub max_retries: u32,
    /// Base backoff before the first retry; attempt `n` waits
    /// `retry_backoff << n` (capped at 8 doublings).
    pub retry_backoff: Picos,
    /// Uncorrectable events a line may accumulate before it is retired
    /// and remapped to a spare.
    pub line_error_budget: u32,
    /// Spare lines reserved (per channel × module) at the top of the
    /// line space for retirement remaps. When exhausted, failing lines
    /// stay in service and keep paying the retry penalty.
    pub spare_lines: u64,
}

util::json_struct!(ResiliencePolicy {
    ecc_strength,
    max_retries,
    retry_backoff,
    line_error_budget,
    spare_lines,
});

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            ecc_strength: 2,
            max_retries: 4,
            retry_backoff: Picos::from_ns(100),
            line_error_budget: 3,
            spare_lines: 64,
        }
    }
}

/// A complete, seeded fault-injection plan. `Default` is fully inert:
/// every rate is zero, so attaching it changes nothing but the report's
/// `degraded` section (which then reads all zeros).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Root seed of every stateless fault draw.
    pub seed: u64,
    /// PRAM-medium fault rates.
    pub pram: PramFaults,
    /// SSD/flash fault rates.
    pub ssd: SsdFaults,
    /// Controller resilience policy.
    pub resilience: ResiliencePolicy,
}

util::json_struct!(FaultPlan {
    seed,
    pram,
    ssd,
    resilience,
});

impl FaultPlan {
    /// A moderate chaos plan: every fault mode enabled at rates that
    /// exercise the full correct/retry/retire ladder on small workloads
    /// without drowning them.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            pram: PramFaults {
                drift_rate: 2e-3,
                read_disturb_rate: 1e-3,
                disturb_window: 64,
                partition_multipliers: Vec::new(),
                stuck_at_threshold: 0,
                program_failure_rate: 1e-3,
                rdb_corruption_rate: 2e-4,
            },
            ssd: SsdFaults {
                transient_read_rate: 1e-3,
            },
            resilience: ResiliencePolicy::default(),
        }
    }
}

/// Degradation counters: what was injected and how it was absorbed.
/// This is both the per-backend fault ledger and the report's
/// `degraded` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Total fault events injected, across every domain.
    pub injected: u64,
    /// Word reads whose bit errors ECC corrected in place.
    pub ecc_corrected: u64,
    /// Word reads ECC could not correct (each triggers the retry path).
    pub ecc_uncorrectable: u64,
    /// Retry attempts issued (reads re-sensed, programs re-pulsed).
    pub retries: u64,
    /// Lines retired to spares after exhausting their error budget.
    pub retired_lines: u64,
    /// SSD reads that failed transiently.
    pub ssd_transient_faults: u64,
    /// SSD read replays issued.
    pub ssd_retries: u64,
    /// Picoseconds of request latency added by the retry/recovery
    /// paths (PRAM re-senses and backoff, SSD replays) — the time cost
    /// of the counters above, so chaos runs are readable as wall time
    /// and not just event counts.
    pub retry_stall_ps: u64,
}

util::json_struct!(FaultCounters {
    injected,
    ecc_corrected,
    ecc_uncorrectable,
    retries,
    retired_lines,
    ssd_transient_faults,
    ssd_retries,
    retry_stall_ps,
});

impl FaultCounters {
    /// Accumulates another ledger into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.injected += other.injected;
        self.ecc_corrected += other.ecc_corrected;
        self.ecc_uncorrectable += other.ecc_uncorrectable;
        self.retries += other.retries;
        self.retired_lines += other.retired_lines;
        self.ssd_transient_faults += other.ssd_transient_faults;
        self.ssd_retries += other.ssd_retries;
        self.retry_stall_ps += other.retry_stall_ps;
    }

    /// True if nothing was injected or absorbed.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounters::default()
    }

    /// Checks a decoded ledger: every counter at most
    /// [`COUNTER_CEILING`](crate::snapshot::COUNTER_CEILING).
    ///
    /// # Errors
    ///
    /// Names the first counter past it (`retries is ...`).
    pub fn check(&self) -> Result<(), String> {
        let c = self;
        for (field, value) in [
            ("injected", c.injected),
            ("ecc_corrected", c.ecc_corrected),
            ("ecc_uncorrectable", c.ecc_uncorrectable),
            ("retries", c.retries),
            ("retired_lines", c.retired_lines),
            ("ssd_transient_faults", c.ssd_transient_faults),
            ("ssd_retries", c.ssd_retries),
            ("retry_stall_ps", c.retry_stall_ps),
        ] {
            crate::snapshot::check_counter(field, value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::json::{FromJson, ToJson};

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert!(p.pram.is_inert());
        assert_eq!(p.ssd.transient_read_rate, 0.0);
    }

    #[test]
    fn seeded_plan_enables_every_domain() {
        let p = FaultPlan::seeded(7);
        assert_eq!(p.seed, 7);
        assert!(!p.pram.is_inert());
        assert!(p.ssd.transient_read_rate > 0.0);
        assert!(p.resilience.max_retries > 0);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let mut p = FaultPlan::seeded(42);
        p.pram.partition_multipliers = vec![1.0, 2.5];
        p.pram.stuck_at_threshold = 100;
        let back = FaultPlan::from_json_str(&p.to_json_pretty()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn partition_multipliers_cycle() {
        let mut f = PramFaults::default();
        assert_eq!(f.partition_multiplier(5), 1.0);
        f.partition_multipliers = vec![1.0, 3.0];
        assert_eq!(f.partition_multiplier(0), 1.0);
        assert_eq!(f.partition_multiplier(1), 3.0);
        assert_eq!(f.partition_multiplier(2), 1.0);
    }

    #[test]
    fn counters_merge_and_round_trip() {
        let mut a = FaultCounters {
            injected: 3,
            ecc_corrected: 2,
            retries: 1,
            ..Default::default()
        };
        let b = FaultCounters {
            injected: 1,
            ssd_transient_faults: 1,
            ssd_retries: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.injected, 4);
        assert_eq!(a.ssd_retries, 2);
        assert!(!a.is_zero());
        assert!(FaultCounters::default().is_zero());
        let back = FaultCounters::from_json_str(&a.to_json_string()).unwrap();
        assert_eq!(back, a);
    }
}
