//! Controller-side resilience: ECC classification, bounded
//! retry-with-backoff, and line retirement onto reserved spares.
//!
//! These are the mechanisms that absorb the faults a
//! [`sim_core::fault::FaultPlan`] injects. The contract, verified by the
//! chaos test tier, is that no injected fault escapes as a wrong result:
//! correctable errors are fixed in place by [`EccModel`], uncorrectable
//! ones pay a bounded [`RetryPolicy`] latency, and lines that keep
//! failing are remapped by [`RetireMap`] onto factory-reserved spare
//! lines — after which the access still succeeds.

use sim_core::time::Picos;
use std::collections::HashMap;

/// ECC classification of a word read carrying `flips` bit errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// No bit errors.
    Clean,
    /// Correctable: fixed in place, data is good.
    Corrected(u32),
    /// Beyond symbol strength: data cannot be trusted, re-read required.
    Uncorrectable(u32),
}

/// A symbol-strength ECC model: up to `strength` bit errors per word are
/// corrected, more are flagged uncorrectable. Strength zero means
/// detect-only (every flip is uncorrectable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccModel {
    /// Maximum correctable bit errors per word.
    pub strength: u32,
}

util::json_struct!(EccModel { strength });

impl EccModel {
    /// Creates a model correcting up to `strength` bit flips per word.
    pub fn new(strength: u32) -> Self {
        EccModel { strength }
    }

    /// Classifies a word read carrying `flips` bit errors.
    ///
    /// Never "corrects" more flips than the configured strength: for any
    /// `flips > strength` the outcome is [`EccOutcome::Uncorrectable`].
    pub fn classify(&self, flips: u32) -> EccOutcome {
        if flips == 0 {
            EccOutcome::Clean
        } else if flips <= self.strength {
            EccOutcome::Corrected(flips)
        } else {
            EccOutcome::Uncorrectable(flips)
        }
    }
}

/// Bounded retry-with-backoff for uncorrectable reads and failed
/// programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retry attempts before the line is declared failing.
    pub max_retries: u32,
    /// Base backoff; attempt `n` (0-based) waits `backoff << n`, with
    /// the shift capped at [`RetryPolicy::MAX_DOUBLINGS`].
    pub backoff: Picos,
}

util::json_struct!(RetryPolicy {
    max_retries,
    backoff
});

impl RetryPolicy {
    /// Exponential-backoff doublings are capped here so the wait stays
    /// bounded even for generous retry budgets.
    pub const MAX_DOUBLINGS: u32 = 8;

    /// Creates a policy of `max_retries` attempts with base `backoff`.
    pub fn new(max_retries: u32, backoff: Picos) -> Self {
        RetryPolicy {
            max_retries,
            backoff,
        }
    }

    /// The backoff wait before 0-based attempt `attempt`.
    pub fn backoff_for(&self, attempt: u32) -> Picos {
        self.backoff * (1u64 << attempt.min(Self::MAX_DOUBLINGS))
    }

    /// Upper bound on the total backoff any single request can accrue:
    /// the sum of every per-attempt wait. Retry loops terminate within
    /// `max_retries` attempts and this much accumulated backoff.
    pub fn total_backoff_bound(&self) -> Picos {
        (0..self.max_retries).map(|a| self.backoff_for(a)).sum()
    }
}

/// Logical line retirement onto spares reserved at the top of a
/// module's line space.
///
/// The remap applies *before* start-gap wear leveling, so a retired
/// line's replacement still participates in rotation. Spares are
/// allocated descending from the top of the usable line space and each
/// is used at most once, which keeps the composed
/// `retire ∘ start-gap` mapping injective by construction (the spare
/// region is factory-reserved: host traffic is assumed to stay below
/// it, as every workload in this repository does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetireMap {
    /// Usable line count (spares included at the top).
    lines: u64,
    /// First line of the reserved spare region.
    spare_base: u64,
    /// Next spare to hand out, descending from `lines - 1`.
    next_spare: u64,
    /// Active remaps: failing logical line → spare line.
    remap: HashMap<u64, u64>,
    retired: u64,
}

util::json_struct!(RetireMap {
    lines,
    spare_base,
    next_spare,
    remap,
    retired
});

impl RetireMap {
    /// Creates a map over `lines` lines with the top `spares` reserved.
    /// `spares` is clamped so at least one addressable line remains.
    pub fn new(lines: u64, spares: u64) -> Self {
        let spares = spares.min(lines.saturating_sub(1));
        RetireMap {
            lines,
            spare_base: lines - spares,
            next_spare: lines.saturating_sub(1),
            remap: HashMap::new(),
            retired: 0,
        }
    }

    /// Checks a decoded map against the `lines` its module has, that
    /// every retired line and the next spare stay inside them, so
    /// [`Self::resolve`] lands every line on a slot, and that `retired`
    /// lies under the
    /// [`COUNTER_CEILING`](sim_core::snapshot::COUNTER_CEILING).
    ///
    /// # Errors
    ///
    /// Names the first field that disagrees.
    pub fn check(&self, lines: u64) -> Result<(), String> {
        if self.lines != lines {
            return Err(format!("lines is {}, the module has {lines}", self.lines));
        }
        if self.next_spare >= lines {
            return Err(format!(
                "next_spare {} is past the last line",
                self.next_spare
            ));
        }
        if let Some((line, spare)) = self
            .remap
            .iter()
            .map(|(&line, &spare)| (line, spare))
            .filter(|&(line, spare)| line >= lines || spare >= lines)
            .min()
        {
            return Err(format!(
                "remap sends line {line} to {spare}, past the last line"
            ));
        }
        sim_core::snapshot::check_counter("retired", self.retired)
    }

    /// The line the controller should actually address for `line`.
    pub fn resolve(&self, line: u64) -> u64 {
        self.remap.get(&line).copied().unwrap_or(line)
    }

    /// True if `line` falls in the reserved spare region.
    pub fn is_spare(&self, line: u64) -> bool {
        line >= self.spare_base
    }

    /// Retires `line`, remapping it to a fresh spare. Returns the spare,
    /// or `None` when spares are exhausted or `line` is itself in the
    /// spare region (the line then stays in service, paying the retry
    /// penalty on every access).
    pub fn retire(&mut self, line: u64) -> Option<u64> {
        if self.is_spare(line) || self.next_spare < self.spare_base {
            return None;
        }
        let spare = self.next_spare;
        self.next_spare = self.next_spare.wrapping_sub(1);
        self.remap.insert(line, spare);
        self.retired += 1;
        Some(spare)
    }

    /// Lines retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Spares still available.
    pub fn spares_left(&self) -> u64 {
        self.next_spare
            .wrapping_sub(self.spare_base)
            .wrapping_add(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ecc_classifies_by_strength() {
        let ecc = EccModel::new(2);
        assert_eq!(ecc.classify(0), EccOutcome::Clean);
        assert_eq!(ecc.classify(1), EccOutcome::Corrected(1));
        assert_eq!(ecc.classify(2), EccOutcome::Corrected(2));
        assert_eq!(ecc.classify(3), EccOutcome::Uncorrectable(3));
        // Detect-only: nothing is correctable.
        assert_eq!(EccModel::new(0).classify(1), EccOutcome::Uncorrectable(1));
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy::new(20, Picos::from_ns(10));
        assert_eq!(p.backoff_for(0), Picos::from_ns(10));
        assert_eq!(p.backoff_for(1), Picos::from_ns(20));
        assert_eq!(p.backoff_for(3), Picos::from_ns(80));
        // Capped at MAX_DOUBLINGS.
        assert_eq!(p.backoff_for(12), p.backoff_for(RetryPolicy::MAX_DOUBLINGS));
        // The bound really bounds every partial sum.
        let total: Picos = (0..p.max_retries).map(|a| p.backoff_for(a)).sum();
        assert_eq!(total, p.total_backoff_bound());
    }

    #[test]
    fn retire_hands_out_distinct_spares() {
        let mut m = RetireMap::new(100, 4);
        assert_eq!(m.resolve(7), 7);
        let mut spares = HashSet::new();
        for line in [7, 20, 33, 41] {
            let s = m.retire(line).expect("spare available");
            assert!(m.is_spare(s));
            assert!(spares.insert(s), "spare reused");
            assert_eq!(m.resolve(line), s);
        }
        assert_eq!(m.retired(), 4);
        assert_eq!(m.spares_left(), 0);
        assert_eq!(m.retire(50), None, "spares exhausted");
    }

    #[test]
    fn spare_region_lines_are_never_retired() {
        let mut m = RetireMap::new(10, 3);
        assert!(m.is_spare(9) && m.is_spare(7) && !m.is_spare(6));
        assert_eq!(m.retire(8), None);
        assert_eq!(m.retired(), 0);
    }

    #[test]
    fn re_retirement_replaces_the_remap() {
        let mut m = RetireMap::new(50, 8);
        let s1 = m.retire(3).unwrap();
        let s2 = m.retire(3).unwrap();
        assert_ne!(s1, s2);
        assert_eq!(m.resolve(3), s2);
    }

    #[test]
    fn resolve_stays_injective_over_the_addressable_region() {
        let mut m = RetireMap::new(64, 16);
        for line in [0, 5, 9, 13, 21, 40] {
            m.retire(line);
        }
        let mut seen = HashSet::new();
        for line in 0..m.spare_base {
            assert!(seen.insert(m.resolve(line)), "collision at {line}");
        }
    }
}
