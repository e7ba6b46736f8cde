//! Resource-occupancy timelines.
//!
//! The memory and storage subsystems in this reproduction are modeled as a
//! set of contended resources (a PRAM partition, a channel data bus, a
//! firmware core, a PCIe link, a flash die …). Each resource is a
//! [`Timeline`]: it remembers when it becomes free and how long it has been
//! busy in total. A request's latency is computed by *walking* its protocol
//! phases across the timelines it touches — exactly how the paper reasons
//! about its timing diagrams (Figs. 11–12).
//!
//! This resource-timeline style is deterministic, allocation-free on the
//! hot path, and makes overlap effects (the multi-resource aware
//! interleaving of §V-A) directly auditable in tests.

use crate::time::Picos;

/// A single contended resource.
///
/// # Examples
///
/// ```
/// use sim_core::{Timeline, Picos};
///
/// let mut bus = Timeline::new();
/// // First burst occupies [0, 40ns).
/// let start = bus.reserve(Picos::ZERO, Picos::from_ns(40));
/// assert_eq!(start, Picos::ZERO);
/// // A burst requested at 10ns must wait until the bus frees at 40ns.
/// let start = bus.reserve(Picos::from_ns(10), Picos::from_ns(40));
/// assert_eq!(start, Picos::from_ns(40));
/// assert_eq!(bus.free_at(), Picos::from_ns(80));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    free_at: Picos,
    busy_total: Picos,
    reservations: u64,
}

util::json_struct!(Timeline {
    free_at,
    busy_total,
    reservations
});

impl Timeline {
    /// Creates a timeline that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest instant at which the resource is free.
    pub fn free_at(&self) -> Picos {
        self.free_at
    }

    /// Total time the resource has been occupied.
    pub fn busy_total(&self) -> Picos {
        self.busy_total
    }

    /// Number of reservations made so far.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Checks a decoded timeline: its reservation count at most
    /// [`COUNTER_CEILING`](crate::snapshot::COUNTER_CEILING) (its clocks
    /// are bounded by [`Picos`]'s decoder).
    ///
    /// # Errors
    ///
    /// Names the field (`reservations is ...`).
    pub fn check(&self) -> Result<(), String> {
        crate::snapshot::check_counter("reservations", self.reservations)
    }

    /// Occupies the resource for `dur`, starting no earlier than `earliest`.
    ///
    /// Returns the actual start time (i.e. `max(earliest, free_at)`), and
    /// moves the free instant to `start + dur`.
    pub fn reserve(&mut self, earliest: Picos, dur: Picos) -> Picos {
        let start = earliest.max(self.free_at);
        self.free_at = start + dur;
        self.busy_total += dur;
        self.reservations += 1;
        start
    }

    /// Like [`reserve`](Self::reserve) but returns `(start, end)`.
    pub fn reserve_span(&mut self, earliest: Picos, dur: Picos) -> (Picos, Picos) {
        let start = self.reserve(earliest, dur);
        (start, start + dur)
    }

    /// When would a reservation start, without making it?
    pub fn probe(&self, earliest: Picos) -> Picos {
        earliest.max(self.free_at)
    }

    /// Forces the resource busy until at least `until` (used for long
    /// blocking operations such as a 60 ms PRAM erase that suspends the
    /// whole partition).
    pub fn block_until(&mut self, until: Picos) {
        if until > self.free_at {
            self.busy_total += until - self.free_at;
            self.free_at = until;
        }
    }

    /// Utilization over a window `[0, horizon]`, in `0.0..=1.0`.
    ///
    /// A zero-length window reports `0.0` (nothing can be busy over an
    /// empty window) rather than dividing by zero — degenerate horizons
    /// show up legitimately when a component never ran.
    pub fn utilization(&self, horizon: Picos) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        (self.busy_total.as_ps() as f64 / horizon.as_ps() as f64).min(1.0)
    }
}

/// A bank of identical timelines addressed by index, with helpers for
/// "first free" scheduling policies.
///
/// # Examples
///
/// ```
/// use sim_core::{timeline::TimelineBank, Picos};
///
/// let mut rdbs = TimelineBank::new(4);
/// rdbs.get_mut(0).reserve(Picos::ZERO, Picos::from_ns(100));
/// // Index 1 is free earliest.
/// assert_eq!(rdbs.first_free(Picos::ZERO), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimelineBank {
    lanes: Vec<Timeline>,
}

util::json_struct!(TimelineBank { lanes });

impl TimelineBank {
    /// Creates `n` fresh timelines.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a timeline bank needs at least one lane");
        TimelineBank {
            lanes: vec![Timeline::new(); n],
        }
    }

    /// Checks a decoded bank against the `lanes` its configuration
    /// builds: that many lanes, each lane's reservation count at most
    /// [`COUNTER_CEILING`](crate::snapshot::COUNTER_CEILING). The request
    /// path indexes lanes by a configured count without checking.
    ///
    /// # Errors
    ///
    /// Names the field (`lanes holds 1 lanes, the configuration has
    /// 16`; `lanes[3].reservations is ...`).
    pub fn check(&self, lanes: usize) -> Result<(), String> {
        if self.lanes.len() != lanes {
            return Err(format!(
                "lanes holds {} lanes, the configuration has {lanes}",
                self.lanes.len()
            ));
        }
        for (i, lane) in self.lanes.iter().enumerate() {
            lane.check().map_err(|e| format!("lanes[{i}].{e}"))?;
        }
        Ok(())
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the bank has no lanes (never true for a constructed bank).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Immutable lane access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> &Timeline {
        &self.lanes[i]
    }

    /// Mutable lane access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get_mut(&mut self, i: usize) -> &mut Timeline {
        &mut self.lanes[i]
    }

    /// Index of the lane that frees earliest; ties go to the lowest index.
    pub fn first_free(&self, earliest: Picos) -> usize {
        let mut best = 0usize;
        let mut best_t = self.lanes[0].probe(earliest);
        for (i, lane) in self.lanes.iter().enumerate().skip(1) {
            let t = lane.probe(earliest);
            if t < best_t {
                best = i;
                best_t = t;
            }
        }
        best
    }

    /// Iterates over lanes.
    pub fn iter(&self) -> std::slice::Iter<'_, Timeline> {
        self.lanes.iter()
    }

    /// Total busy time across all lanes.
    pub fn busy_total(&self) -> Picos {
        self.lanes.iter().map(|l| l.busy_total()).sum()
    }

    /// Latest free instant across the bank.
    pub fn all_free_at(&self) -> Picos {
        self.lanes
            .iter()
            .map(|l| l.free_at())
            .fold(Picos::ZERO, Picos::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoded_banks_must_have_the_built_lanes_and_bounded_counts() {
        let mut bank = TimelineBank::new(4);
        assert_eq!(bank.check(4), Ok(()));
        assert_eq!(
            bank.check(16).unwrap_err(),
            "lanes holds 4 lanes, the configuration has 16"
        );
        bank.lanes[2].reservations = crate::snapshot::COUNTER_CEILING;
        assert_eq!(bank.check(4), Ok(()));
        bank.lanes[2].reservations += 1;
        let err = bank.check(4).unwrap_err();
        assert!(err.starts_with("lanes[2].reservations is"), "{err}");
    }

    #[test]
    fn reserve_serializes_overlapping_requests() {
        let mut t = Timeline::new();
        let s1 = t.reserve(Picos::from_ns(0), Picos::from_ns(10));
        let s2 = t.reserve(Picos::from_ns(5), Picos::from_ns(10));
        let s3 = t.reserve(Picos::from_ns(50), Picos::from_ns(10));
        assert_eq!(s1, Picos::from_ns(0));
        assert_eq!(s2, Picos::from_ns(10)); // queued behind s1
        assert_eq!(s3, Picos::from_ns(50)); // idle gap preserved
        assert_eq!(t.busy_total(), Picos::from_ns(30));
        assert_eq!(t.reservations(), 3);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut t = Timeline::new();
        t.reserve(Picos::ZERO, Picos::from_ns(10));
        let before = t.clone();
        assert_eq!(t.probe(Picos::from_ns(3)), Picos::from_ns(10));
        assert_eq!(t, before);
    }

    #[test]
    fn block_until_extends_busy() {
        let mut t = Timeline::new();
        t.block_until(Picos::from_ms(60)); // a PRAM erase
        assert_eq!(t.free_at(), Picos::from_ms(60));
        assert_eq!(t.busy_total(), Picos::from_ms(60));
        // Blocking to an earlier time is a no-op.
        t.block_until(Picos::from_ms(1));
        assert_eq!(t.free_at(), Picos::from_ms(60));
    }

    #[test]
    fn utilization_bounds() {
        let mut t = Timeline::new();
        t.reserve(Picos::ZERO, Picos::from_ns(25));
        assert!((t.utilization(Picos::from_ns(100)) - 0.25).abs() < 1e-12);
        assert_eq!(t.utilization(Picos::from_ns(10)), 1.0); // clamped
    }

    #[test]
    fn utilization_of_zero_horizon_is_zero() {
        // Regression: a zero window used to be a division hazard; it
        // must report 0.0 (finite), busy or not.
        let mut t = Timeline::new();
        assert_eq!(t.utilization(Picos::ZERO), 0.0);
        t.reserve(Picos::ZERO, Picos::from_ns(25));
        assert_eq!(t.utilization(Picos::ZERO), 0.0);
        assert!(t.utilization(Picos::ZERO).is_finite());
    }

    #[test]
    fn bank_first_free_prefers_lowest_index_on_tie() {
        let bank = TimelineBank::new(3);
        assert_eq!(bank.first_free(Picos::ZERO), 0);
    }

    #[test]
    fn bank_first_free_finds_idle_lane() {
        let mut bank = TimelineBank::new(3);
        bank.get_mut(0).reserve(Picos::ZERO, Picos::from_ns(100));
        bank.get_mut(1).reserve(Picos::ZERO, Picos::from_ns(50));
        assert_eq!(bank.first_free(Picos::ZERO), 2);
        bank.get_mut(2).reserve(Picos::ZERO, Picos::from_ns(200));
        assert_eq!(bank.first_free(Picos::ZERO), 1);
    }

    #[test]
    fn bank_aggregates() {
        let mut bank = TimelineBank::new(2);
        bank.get_mut(0).reserve(Picos::ZERO, Picos::from_ns(10));
        bank.get_mut(1).reserve(Picos::ZERO, Picos::from_ns(30));
        assert_eq!(bank.busy_total(), Picos::from_ns(40));
        assert_eq!(bank.all_free_at(), Picos::from_ns(30));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_bank_rejected() {
        let _ = TimelineBank::new(0);
    }
}
