//! The power/sleep controller (PSC).
//!
//! §III-B / Figure 9b: the server parks idle agents in a sleep state,
//! stores the kernel's boot address into the target agent's L2, and
//! revokes (wakes) it through the PSC. The PSC tracks each PE's power
//! state and charges the wake/sleep transition latencies.

use sim_core::time::Picos;

/// A PE power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeState {
    /// Clock-gated, waiting for a boot address.
    #[default]
    Sleep,
    /// Executing (or stalled on memory).
    Active,
}

/// Transition timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PscParams {
    /// Sleep → active: PLL relock + boot-address fetch.
    pub wake: Picos,
    /// Active → sleep: state retention entry.
    pub sleep: Picos,
}

util::json_struct!(PscParams { wake, sleep });

impl Default for PscParams {
    fn default() -> Self {
        PscParams {
            wake: Picos::from_us(12),
            sleep: Picos::from_us(2),
        }
    }
}

/// The PSC: per-PE state machine.
#[derive(Debug, Clone)]
pub struct PowerSleepController {
    params: PscParams,
    states: Vec<PeState>,
    transitions: u64,
}

impl PowerSleepController {
    /// Creates a PSC for `pes` elements, all asleep.
    ///
    /// # Panics
    ///
    /// Panics if `pes` is zero.
    pub fn new(params: PscParams, pes: usize) -> Self {
        assert!(pes > 0, "PSC needs at least one PE");
        PowerSleepController {
            params,
            states: vec![PeState::Sleep; pes],
            transitions: 0,
        }
    }

    /// Current state of PE `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn state(&self, i: usize) -> PeState {
        self.states[i]
    }

    /// Total transitions performed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Wakes PE `i` at time `at`; returns when it can execute. Waking an
    /// already-active PE is a no-op.
    pub fn wake(&mut self, at: Picos, i: usize) -> Picos {
        if self.states[i] == PeState::Active {
            return at;
        }
        self.states[i] = PeState::Active;
        self.transitions += 1;
        at + self.params.wake
    }

    /// Puts PE `i` to sleep at `at`; returns when the state is retained.
    pub fn sleep(&mut self, at: Picos, i: usize) -> Picos {
        if self.states[i] == PeState::Sleep {
            return at;
        }
        self.states[i] = PeState::Sleep;
        self.transitions += 1;
        at + self.params.sleep
    }

    /// Number of active PEs.
    pub fn active_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == PeState::Active)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_asleep_initially() {
        let psc = PowerSleepController::new(PscParams::default(), 8);
        assert_eq!(psc.active_count(), 0);
        assert_eq!(psc.state(3), PeState::Sleep);
    }

    #[test]
    fn wake_charges_latency_once() {
        let mut psc = PowerSleepController::new(PscParams::default(), 2);
        let t = psc.wake(Picos::ZERO, 0);
        assert_eq!(t, Picos::from_us(12));
        // Re-waking is free.
        assert_eq!(psc.wake(t, 0), t);
        assert_eq!(psc.transitions(), 1);
    }

    #[test]
    fn sleep_wake_round_trip() {
        let mut psc = PowerSleepController::new(PscParams::default(), 1);
        let t = psc.wake(Picos::ZERO, 0);
        let t = psc.sleep(t, 0);
        assert_eq!(psc.state(0), PeState::Sleep);
        let t2 = psc.wake(t, 0);
        assert_eq!(t2 - t, Picos::from_us(12));
        assert_eq!(psc.transitions(), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_range_pe_panics() {
        let psc = PowerSleepController::new(PscParams::default(), 2);
        psc.state(5);
    }
}
