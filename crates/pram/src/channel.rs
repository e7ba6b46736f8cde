//! A LPDDR2-NVM channel: 16 PRAM modules sharing command and data buses.
//!
//! Figure 6a/14: the FPGA exposes two LPDDR2-NVM channels, each able to
//! hold 16 400-MHz PRAM modules. Within a channel the modules share a
//! 20-bit command/address bus and a 16-bit dq bus; both are contended
//! resources, which [`PramChannel`] models with [`Timeline`]s. The
//! controller crate drives this type.

use crate::device::PramModule;
use crate::timing::PramTiming;
use sim_core::time::Picos;
use sim_core::timeline::Timeline;

/// A channel of PRAM modules behind shared buses.
///
/// # Examples
///
/// ```
/// use pram::{PramChannel, PramTiming};
///
/// let ch = PramChannel::new(PramTiming::table2(), 16, 7);
/// assert_eq!(ch.module_count(), 16);
/// assert_eq!(ch.capacity_bytes(), 16 << 30); // 16 x 1 GiB modules
/// ```
#[derive(Debug, Clone)]
pub struct PramChannel {
    modules: Vec<PramModule>,
    cmd_bus: Timeline,
    dq_bus: Timeline,
    timing: PramTiming,
}

util::json_struct!(PramChannel {
    modules,
    cmd_bus,
    dq_bus,
    timing
});

impl PramChannel {
    /// Creates a channel of `n` modules.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(timing: PramTiming, n: usize, seed: u64) -> Self {
        assert!(n > 0, "a channel needs at least one module");
        PramChannel {
            modules: (0..n)
                .map(|i| PramModule::new(timing, seed.wrapping_add(i as u64)))
                .collect(),
            cmd_bus: Timeline::new(),
            dq_bus: Timeline::new(),
            timing,
        }
    }

    /// Checks a decoded channel image against `built`, a channel its
    /// configuration builds: the same timing, as many modules, and each
    /// module shaped like its counterpart ([`PramModule::check_shape`]).
    ///
    /// # Errors
    ///
    /// Names the first field that disagrees, from the channel down
    /// (`modules[3].program_windows ...`).
    pub fn check_shape(&self, built: &PramChannel) -> Result<(), String> {
        sim_core::snapshot::check_config("timing", &self.timing, &built.timing)?;
        if self.modules.len() != built.modules.len() {
            return Err(format!(
                "modules holds {} modules, the configuration has {}",
                self.modules.len(),
                built.modules.len()
            ));
        }
        for (i, (module, built)) in self.modules.iter().zip(&built.modules).enumerate() {
            module
                .check_shape(built)
                .map_err(|e| format!("modules[{i}].{e}"))?;
        }
        Ok(())
    }

    /// Number of modules on the channel.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Total byte capacity across modules.
    pub fn capacity_bytes(&self) -> u64 {
        self.modules
            .iter()
            .map(|m| m.geometry().module_bytes())
            .sum()
    }

    /// The channel timing (same as every module's).
    pub fn timing(&self) -> &PramTiming {
        &self.timing
    }

    /// Immutable module access.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn module(&self, idx: usize) -> &PramModule {
        &self.modules[idx]
    }

    /// Mutable module access.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn module_mut(&mut self, idx: usize) -> &mut PramModule {
        &mut self.modules[idx]
    }

    /// Splits the channel into one module plus the two bus timelines, so a
    /// controller can reserve bus time while issuing phases to the module.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn module_and_buses(
        &mut self,
        idx: usize,
    ) -> (&mut PramModule, &mut Timeline, &mut Timeline) {
        let m = &mut self.modules[idx];
        (m, &mut self.cmd_bus, &mut self.dq_bus)
    }

    /// Reserves one command slot (a single 20-bit packet takes one
    /// interface clock on the shared command bus). Returns the slot start.
    pub fn reserve_cmd_slot(&mut self, earliest: Picos) -> Picos {
        self.cmd_bus.reserve(earliest, self.timing.tck())
    }

    /// Reserves the dq bus for `dur` (a data burst). Returns the start.
    pub fn reserve_dq(&mut self, earliest: Picos, dur: Picos) -> Picos {
        self.dq_bus.reserve(earliest, dur)
    }

    /// Data-bus occupancy so far.
    pub fn dq_busy(&self) -> Picos {
        self.dq_bus.busy_total()
    }

    /// Iterates the modules.
    pub fn modules(&self) -> std::slice::Iter<'_, PramModule> {
        self.modules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_holds_16_modules_of_1gib() {
        let ch = PramChannel::new(PramTiming::table2(), 16, 0);
        assert_eq!(ch.module_count(), 16);
        assert_eq!(ch.capacity_bytes(), 16u64 << 30);
    }

    #[test]
    fn cmd_slots_serialize_on_the_bus() {
        let mut ch = PramChannel::new(PramTiming::table2(), 2, 0);
        let s1 = ch.reserve_cmd_slot(Picos::ZERO);
        let s2 = ch.reserve_cmd_slot(Picos::ZERO);
        assert_eq!(s1, Picos::ZERO);
        assert_eq!(s2, Picos::from_ns_f64(2.5)); // one tCK later
    }

    #[test]
    fn dq_bursts_serialize() {
        let mut ch = PramChannel::new(PramTiming::table2(), 2, 0);
        let b = Picos::from_ns(40);
        let s1 = ch.reserve_dq(Picos::ZERO, b);
        let s2 = ch.reserve_dq(Picos::ZERO, b);
        assert_eq!(s1, Picos::ZERO);
        assert_eq!(s2, b);
        assert_eq!(ch.dq_busy(), b * 2);
    }

    #[test]
    fn modules_have_distinct_rng_streams() {
        // Strobe jitter must differ across modules (seeded differently),
        // while the channel as a whole stays deterministic.
        let mut a = PramChannel::new(PramTiming::table2(), 2, 9);
        let mut b = PramChannel::new(PramTiming::table2(), 2, 9);
        use crate::buffers::BufferId;
        use crate::geometry::RowId;
        let row = RowId::new(0, 0);
        for ch in [&mut a, &mut b] {
            let (m, _, _) = ch.module_and_buses(0);
            let g = m.geometry().lower_row_bits;
            m.pre_active(Picos::ZERO, BufferId::B0, row.upper(g));
            m.activate(Picos::ZERO, BufferId::B0, row.lower(g));
        }
        let (ra, _) = a.module_mut(0).read_burst(
            Picos::from_us(1),
            Picos::ZERO,
            BufferId::B0,
            0,
            crate::timing::BurstLen::Bl16,
        );
        let (rb, _) = b.module_mut(0).read_burst(
            Picos::from_us(1),
            Picos::ZERO,
            BufferId::B0,
            0,
            crate::timing::BurstLen::Bl16,
        );
        assert_eq!(ra, rb, "same seed, same jitter");
    }

    #[test]
    #[should_panic(expected = "at least one module")]
    fn empty_channel_rejected() {
        PramChannel::new(PramTiming::table2(), 0, 0);
    }
}
