//! Start-gap wear leveling (§VII, "PRAM lifetime").
//!
//! The paper notes DRAM-less "can integrate traditional wear levellers in
//! our PRAM controller, such as start-gap, to improve the PRAM lifetime".
//! This module implements the start-gap algorithm of Qureshi et al.
//! (MICRO'09): the physical space holds one spare line (the *gap*); every
//! ψ writes the gap moves down one slot (copying one line), and once it
//! has swept the whole region the *start* pointer advances, so every
//! logical line slowly rotates over every physical line.
//!
//! The mapping is a bijection from the `n` logical lines onto the `n + 1`
//! physical slots minus the gap — property-tested in the repository's
//! `prop_invariants` suite as well as here.

use sim_core::snapshot::check_counter;

/// A line copy the controller must perform because the gap moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapMove {
    /// Physical slot whose contents move…
    pub from: u64,
    /// …into this (previously gap) slot.
    pub to: u64,
}

util::json_struct!(GapMove { from, to });

/// Start-gap remapping state over `n` logical lines.
///
/// # Examples
///
/// ```
/// use pram_ctrl::wear::StartGap;
///
/// let mut sg = StartGap::new(8, 4); // 8 lines, gap moves every 4 writes
/// let before = sg.map(3);
/// for _ in 0..64 {
///     sg.on_write();
/// }
/// // After enough writes the line has physically moved.
/// assert_ne!(sg.map(3), before);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartGap {
    lines: u64,
    /// Gap slot position in `0..=lines`.
    gap: u64,
    /// Rotation offset in `0..lines`.
    start: u64,
    writes_since_move: u64,
    interval: u64,
    total_moves: u64,
}

util::json_struct!(StartGap {
    lines,
    gap,
    start,
    writes_since_move,
    interval,
    total_moves
});

impl StartGap {
    /// Creates a leveler over `lines` logical lines, moving the gap every
    /// `interval` writes (ψ; Qureshi et al. use 100).
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `interval` is zero.
    pub fn new(lines: u64, interval: u64) -> Self {
        assert!(lines > 0, "need at least one line");
        assert!(interval > 0, "gap interval must be non-zero");
        StartGap {
            lines,
            gap: lines, // gap starts at the spare slot at the end
            start: 0,
            writes_since_move: 0,
            interval,
            total_moves: 0,
        }
    }

    /// Checks a decoded leveler against the `lines` and `interval` its
    /// configuration builds it with, that its gap and start lie inside
    /// them, so [`Self::map`] lands every line on a slot, and that the
    /// counters [`Self::on_write`] adds to lie under the
    /// [`COUNTER_CEILING`](sim_core::snapshot::COUNTER_CEILING).
    ///
    /// # Errors
    ///
    /// Names the first field that disagrees.
    pub fn check(&self, lines: u64, interval: u64) -> Result<(), String> {
        if self.lines != lines {
            return Err(format!("lines is {}, the module has {lines}", self.lines));
        }
        if self.interval != interval {
            return Err(format!(
                "interval is {}, the configuration has {interval}",
                self.interval
            ));
        }
        if self.gap > self.lines {
            return Err(format!(
                "gap {} is past the spare slot {}",
                self.gap, self.lines
            ));
        }
        if self.start >= self.lines {
            return Err(format!("start {} is past the last line", self.start));
        }
        check_counter("writes_since_move", self.writes_since_move)?;
        check_counter("total_moves", self.total_moves)
    }

    /// Number of logical lines.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Number of physical slots (`lines + 1`).
    pub fn slots(&self) -> u64 {
        self.lines + 1
    }

    /// Total gap movements so far.
    pub fn total_moves(&self) -> u64 {
        self.total_moves
    }

    /// Maps a logical line to its current physical slot.
    ///
    /// # Panics
    ///
    /// Panics if `logical >= lines`.
    pub fn map(&self, logical: u64) -> u64 {
        assert!(logical < self.lines, "logical line out of range");
        let rotated = (logical + self.start) % self.lines;
        if rotated >= self.gap {
            rotated + 1
        } else {
            rotated
        }
    }

    /// Records one write; if the gap interval elapses, moves the gap and
    /// returns the line copy the controller must perform.
    pub fn on_write(&mut self) -> Option<GapMove> {
        self.writes_since_move += 1;
        if self.writes_since_move < self.interval {
            return None;
        }
        self.writes_since_move = 0;
        self.total_moves += 1;
        if self.gap == 0 {
            // Gap wrapped: advance the rotation and park the gap at the
            // spare slot again.
            self.start = (self.start + 1) % self.lines;
            self.gap = self.lines;
            // Moving the gap from slot 0 to the end: the line that maps
            // to the end slot (rotated == lines - 1 … now < gap) came
            // from slot 0's neighbourhood; physically this transition
            // copies nothing extra because slot 0 was the gap.
            None
        } else {
            let mv = GapMove {
                from: self.gap - 1,
                to: self.gap,
            };
            self.gap -= 1;
            Some(mv)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_bijection(sg: &StartGap) {
        let mut seen = HashSet::new();
        for l in 0..sg.lines() {
            let p = sg.map(l);
            assert!(p < sg.slots(), "slot {p} out of range");
            assert_ne!(p, sg.gap, "line {l} mapped onto the gap");
            assert!(seen.insert(p), "collision at slot {p}");
        }
    }

    #[test]
    fn initial_mapping_is_identity() {
        let sg = StartGap::new(16, 4);
        for l in 0..16 {
            assert_eq!(sg.map(l), l);
        }
    }

    #[test]
    fn mapping_stays_bijective_across_many_moves() {
        let mut sg = StartGap::new(13, 3);
        for step in 0..1000 {
            sg.on_write();
            assert_bijection(&sg);
            let _ = step;
        }
    }

    #[test]
    fn gap_moves_every_interval_writes() {
        let mut sg = StartGap::new(8, 5);
        for _ in 0..4 {
            assert!(sg.on_write().is_none());
        }
        // Fifth write moves the gap.
        let mv = sg.on_write().unwrap();
        assert_eq!(mv, GapMove { from: 7, to: 8 });
        assert_eq!(sg.total_moves(), 1);
    }

    #[test]
    fn full_sweep_advances_start() {
        let n = 6u64;
        let mut sg = StartGap::new(n, 1);
        // n moves bring the gap to slot 0; one more wraps and bumps start.
        for _ in 0..n {
            sg.on_write();
        }
        assert_eq!(sg.gap, 0);
        sg.on_write();
        assert_eq!(sg.start, 1);
        assert_eq!(sg.gap, n);
        assert_bijection(&sg);
    }

    #[test]
    fn every_line_eventually_visits_every_slot() {
        let n = 5u64;
        let mut sg = StartGap::new(n, 1);
        let mut visited: Vec<HashSet<u64>> = vec![HashSet::new(); n as usize];
        for _ in 0..((n + 1) * (n + 1) * 2) {
            for l in 0..n {
                visited[l as usize].insert(sg.map(l));
            }
            sg.on_write();
        }
        for (l, slots) in visited.iter().enumerate() {
            assert!(
                slots.len() as u64 >= n,
                "line {l} only visited {} slots",
                slots.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "logical line out of range")]
    fn out_of_range_rejected() {
        StartGap::new(4, 1).map(4);
    }
}

#[cfg(test)]
mod endurance_tests {
    use super::*;

    /// A hot logical line's writes spread across physical slots as the
    /// gap sweeps — the §VII lifetime mechanism in miniature.
    #[test]
    fn hot_line_wear_spreads_over_slots() {
        let lines = 8u64;
        let mut sg = StartGap::new(lines, 1);
        let mut slot_writes = vec![0u64; sg.slots() as usize];
        // Hammer one logical line while the gap sweeps aggressively.
        for _ in 0..((lines + 1) * lines * 4) {
            slot_writes[sg.map(3) as usize] += 1;
            sg.on_write();
        }
        let touched = slot_writes.iter().filter(|&&w| w > 0).count();
        assert!(
            touched as u64 >= lines,
            "hot line should visit most slots, touched {touched}"
        );
        let max = *slot_writes.iter().max().expect("slots");
        let total: u64 = slot_writes.iter().sum();
        // Without leveling, max == total; with it, the hottest slot holds
        // only a fraction.
        assert!(
            max * 3 < total,
            "wear not spread: max {max} of total {total}"
        );
    }
}
