//! PRAM timing parameters (Table II of the paper).
//!
//! | Parameter | Value | Parameter | Value |
//! |---|---|---|---|
//! | RL | 6 cycles | tRP | 3 cycles |
//! | WL | 3 cycles | tRCD | 80 ns |
//! | tCK | 2.5 ns | tDQSCK | 2.5–5.5 ns |
//! | tDQSS | 0.75–1.25 ns | tWRA | 15 ns |
//! | tBURST | 4/8/16 cycles (BL4/8/16) | PRAM write | 10 (+8 overwrite) µs |
//! | RAB | 4 | RDB | 4 × 32 B |
//! | Channels | 2 | Packages | 16 | Partitions | 16 |
//!
//! The paper additionally characterizes the erase latency at ~60 ms
//! (§V-A) and notes that a complete three-phase read lands around 100 ns.

use sim_core::time::{Freq, Picos};
use sim_core::SimRng;
use util::rng::UniformRange;

/// LPDDR2-NVM burst length selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BurstLen {
    /// 4-beat burst (8 bytes on the 16-bit dq bus).
    Bl4,
    /// 8-beat burst (16 bytes).
    Bl8,
    /// 16-beat burst (32 bytes — one full row word).
    #[default]
    Bl16,
}

util::json_enum!(BurstLen { Bl4, Bl8, Bl16 });

impl BurstLen {
    /// Burst duration in interface cycles (Table II maps BLn to n cycles).
    pub fn cycles(self) -> u64 {
        match self {
            BurstLen::Bl4 => 4,
            BurstLen::Bl8 => 8,
            BurstLen::Bl16 => 16,
        }
    }

    /// Bytes transferred by one burst over the 16-bit dq bus.
    pub fn bytes(self) -> u32 {
        match self {
            BurstLen::Bl4 => 8,
            BurstLen::Bl8 => 16,
            BurstLen::Bl16 => 32,
        }
    }

    /// Smallest burst covering `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds 32 bytes (one row word).
    pub fn covering(n: u32) -> Self {
        assert!(n > 0 && n <= 32, "burst must cover 1..=32 bytes, got {n}");
        if n <= 8 {
            BurstLen::Bl4
        } else if n <= 16 {
            BurstLen::Bl8
        } else {
            BurstLen::Bl16
        }
    }
}

/// The complete timing parameter set of one PRAM module.
///
/// Constructed via [`PramTiming::table2`] for the paper's characterized
/// device; all fields are public so ablations can sweep them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PramTiming {
    /// Interface clock (400 MHz → tCK = 2.5 ns).
    pub clock: Freq,
    /// Read latency in interface cycles.
    pub rl_cycles: u64,
    /// Write latency in interface cycles.
    pub wl_cycles: u64,
    /// Row precharge (pre-active phase) in interface cycles.
    pub trp_cycles: u64,
    /// Row-to-column delay (activate phase: address composition + array
    /// sensing into the RDB).
    pub trcd: Picos,
    /// Read strobe output access window, sampled uniformly per access.
    pub tdqsck_min: Picos,
    /// Upper bound of the tDQSCK window.
    pub tdqsck_max: Picos,
    /// Write strobe latching window, sampled uniformly per access.
    pub tdqss_min: Picos,
    /// Upper bound of the tDQSS window.
    pub tdqss_max: Picos,
    /// Write recovery after a program-buffer flush.
    pub twra: Picos,
    /// SET-only cell program time (write to pristine cells).
    pub t_program_set: Picos,
    /// Extra RESET time incurred when overwriting programmed cells
    /// (overwrite = RESET + SET = `t_program_set + t_reset_extra`).
    pub t_reset_extra: Picos,
    /// Partition erase latency (~3000× an overwrite; §V-A measures 60 ms).
    pub t_erase: Picos,
    /// Pause/resume overhead for write pausing (the §VII extension after
    /// Qureshi et al. \[66\]): suspending an in-flight program so a read
    /// can slip in, then re-ramping the write drivers.
    pub t_pause_resume: Picos,
    /// Number of row address buffers.
    pub rab_count: usize,
    /// Number of row data buffers (each `word_bytes` wide).
    pub rdb_count: usize,
}

util::json_struct!(PramTiming {
    clock,
    rl_cycles,
    wl_cycles,
    trp_cycles,
    trcd,
    tdqsck_min,
    tdqsck_max,
    tdqss_min,
    tdqss_max,
    twra,
    t_program_set,
    t_reset_extra,
    t_erase,
    t_pause_resume,
    rab_count,
    rdb_count,
});

impl Default for PramTiming {
    fn default() -> Self {
        Self::table2()
    }
}

impl PramTiming {
    /// The characterized parameters of Table II.
    pub fn table2() -> Self {
        PramTiming {
            clock: Freq::from_mhz(400),
            rl_cycles: 6,
            wl_cycles: 3,
            trp_cycles: 3,
            trcd: Picos::from_ns(80),
            tdqsck_min: Picos::from_ns_f64(2.5),
            tdqsck_max: Picos::from_ns_f64(5.5),
            tdqss_min: Picos::from_ns_f64(0.75),
            tdqss_max: Picos::from_ns_f64(1.25),
            twra: Picos::from_ns(15),
            t_program_set: Picos::from_us(10),
            t_reset_extra: Picos::from_us(8),
            t_erase: Picos::from_ms(60),
            t_pause_resume: Picos::from_ns(500),
            rab_count: 4,
            rdb_count: 4,
        }
    }

    /// The 9x-nm parallel PRAM with a NOR-flash interface ("NOR-intf" in
    /// Table I): byte-addressable but with 290 µs reads, 120 µs writes and
    /// 16-bit serialized low-level operations.
    pub fn nor_interface() -> Self {
        PramTiming {
            clock: Freq::from_mhz(66),
            rl_cycles: 6,
            wl_cycles: 3,
            trp_cycles: 3,
            trcd: Picos::from_us(290), // array sensing dominates
            tdqsck_min: Picos::from_ns_f64(2.5),
            tdqsck_max: Picos::from_ns_f64(5.5),
            tdqss_min: Picos::from_ns_f64(0.75),
            tdqss_max: Picos::from_ns_f64(1.25),
            twra: Picos::from_ns(15),
            t_program_set: Picos::from_us(120),
            t_reset_extra: Picos::ZERO, // already included in the 120 µs
            t_erase: Picos::from_ms(60),
            t_pause_resume: Picos::from_us(2),
            rab_count: 1,
            rdb_count: 1,
        }
    }

    /// One interface cycle.
    pub fn tck(&self) -> Picos {
        self.clock.cycle()
    }

    /// Pre-active phase duration (tRP).
    pub fn trp(&self) -> Picos {
        self.clock.cycles_to_time(self.trp_cycles)
    }

    /// Read latency (RL) as time.
    pub fn rl(&self) -> Picos {
        self.clock.cycles_to_time(self.rl_cycles)
    }

    /// Write latency (WL) as time.
    pub fn wl(&self) -> Picos {
        self.clock.cycles_to_time(self.wl_cycles)
    }

    /// Burst duration for a burst length.
    pub fn tburst(&self, bl: BurstLen) -> Picos {
        self.clock.cycles_to_time(bl.cycles())
    }

    /// Samples the read strobe window (tDQSCK) uniformly.
    pub fn sample_tdqsck(&self, rng: &mut SimRng) -> Picos {
        Picos::from_ps(rng.range_u64(self.tdqsck_min.as_ps(), self.tdqsck_max.as_ps()))
    }

    /// Samples the write strobe window (tDQSS) uniformly.
    pub fn sample_tdqss(&self, rng: &mut SimRng) -> Picos {
        Picos::from_ps(rng.range_u64(self.tdqss_min.as_ps(), self.tdqss_max.as_ps()))
    }

    /// The strobe windows prepared for repeated draws.
    ///
    /// # Panics
    ///
    /// Panics if a window's minimum is past its maximum.
    pub fn strobes(&self) -> StrobeWindows {
        StrobeWindows::try_of(self).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Cell program time for an overwrite (RESET + SET).
    pub fn t_program_overwrite(&self) -> Picos {
        self.t_program_set + self.t_reset_extra
    }

    /// The nominal latency of a complete three-phase read with no buffer
    /// hits: `tRP + tRCD + RL + mean tDQSCK + tBURST(BL16)`.
    ///
    /// For Table II this is ≈ 146.5 ns — the paper rounds it to "around
    /// 100 ns".
    pub fn nominal_read(&self) -> Picos {
        let dqsck = (self.tdqsck_min + self.tdqsck_max) / 2;
        self.trp() + self.trcd + self.rl() + dqsck + self.tburst(BurstLen::Bl16)
    }
}

/// The two strobe windows of a [`PramTiming`], prepared for the draw
/// every read and write burst makes: each draw is the one
/// [`PramTiming::sample_tdqsck`] or [`PramTiming::sample_tdqss`] makes
/// from the same generator state, without a hardware divide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrobeWindows {
    tdqsck: UniformRange,
    tdqss: UniformRange,
}

impl StrobeWindows {
    /// Prepares `timing`'s windows.
    ///
    /// # Errors
    ///
    /// Names a window whose minimum is past its maximum.
    pub fn try_of(timing: &PramTiming) -> Result<Self, String> {
        let window = |name: &str, lo: Picos, hi: Picos| {
            UniformRange::try_new(lo.as_ps(), hi.as_ps())
                .ok_or_else(|| format!("timing: {name}_min {lo} is past {name}_max {hi}"))
        };
        Ok(StrobeWindows {
            tdqsck: window("tdqsck", timing.tdqsck_min, timing.tdqsck_max)?,
            tdqss: window("tdqss", timing.tdqss_min, timing.tdqss_max)?,
        })
    }

    /// Draws a read strobe delay (tDQSCK).
    #[inline]
    pub fn tdqsck(&self, rng: &mut SimRng) -> Picos {
        Picos::from_ps(rng.draw(&self.tdqsck))
    }

    /// Draws a write strobe delay (tDQSS).
    #[inline]
    pub fn tdqss(&self, rng: &mut SimRng) -> Picos {
        Picos::from_ps(rng.draw(&self.tdqss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_are_exact() {
        let t = PramTiming::table2();
        assert_eq!(t.tck(), Picos::from_ns_f64(2.5));
        assert_eq!(t.rl(), Picos::from_ns(15)); // 6 cycles
        assert_eq!(t.wl(), Picos::from_ns_f64(7.5)); // 3 cycles
        assert_eq!(t.trp(), Picos::from_ns_f64(7.5)); // 3 cycles
        assert_eq!(t.trcd, Picos::from_ns(80));
        assert_eq!(t.twra, Picos::from_ns(15));
        assert_eq!(t.tburst(BurstLen::Bl4), Picos::from_ns(10));
        assert_eq!(t.tburst(BurstLen::Bl8), Picos::from_ns(20));
        assert_eq!(t.tburst(BurstLen::Bl16), Picos::from_ns(40));
        assert_eq!(t.t_program_set, Picos::from_us(10));
        assert_eq!(t.t_program_overwrite(), Picos::from_us(18));
        assert_eq!(t.t_erase, Picos::from_ms(60));
        assert_eq!(t.rab_count, 4);
        assert_eq!(t.rdb_count, 4);
    }

    #[test]
    fn nominal_read_near_paper_100ns() {
        // Paper: "the read latency is around 100 ns, including three-phase
        // addressing (RL, tRCD, tRP and tBURST)".
        let t = PramTiming::table2();
        let r = t.nominal_read();
        assert!(r >= Picos::from_ns(100) && r <= Picos::from_ns(200), "{r}");
    }

    #[test]
    fn erase_is_about_3000x_overwrite() {
        // §V-A: erase ≈ 60 ms is "3K times longer than an overwrite".
        let t = PramTiming::table2();
        let ratio = t.t_erase / t.t_program_overwrite();
        assert!((3_000..4_000).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn burst_lengths() {
        assert_eq!(BurstLen::Bl4.bytes(), 8);
        assert_eq!(BurstLen::Bl8.bytes(), 16);
        assert_eq!(BurstLen::Bl16.bytes(), 32);
        assert_eq!(BurstLen::covering(1), BurstLen::Bl4);
        assert_eq!(BurstLen::covering(8), BurstLen::Bl4);
        assert_eq!(BurstLen::covering(9), BurstLen::Bl8);
        assert_eq!(BurstLen::covering(32), BurstLen::Bl16);
    }

    #[test]
    #[should_panic(expected = "burst must cover")]
    fn covering_rejects_oversized() {
        BurstLen::covering(33);
    }

    #[test]
    fn strobe_samples_stay_in_window() {
        let t = PramTiming::table2();
        let mut rng = SimRng::seed(1);
        for _ in 0..500 {
            let dqsck = t.sample_tdqsck(&mut rng);
            assert!(dqsck >= t.tdqsck_min && dqsck <= t.tdqsck_max);
            let dqss = t.sample_tdqss(&mut rng);
            assert!(dqss >= t.tdqss_min && dqss <= t.tdqss_max);
        }
    }

    #[test]
    fn prepared_strobes_draw_what_the_samplers_draw() {
        for t in [PramTiming::table2(), PramTiming::nor_interface()] {
            let strobes = t.strobes();
            let (mut a, mut b) = (SimRng::seed(9), SimRng::seed(9));
            for _ in 0..500 {
                assert_eq!(strobes.tdqsck(&mut a), t.sample_tdqsck(&mut b));
                assert_eq!(strobes.tdqss(&mut a), t.sample_tdqss(&mut b));
            }
        }
        let inverted = PramTiming {
            tdqss_min: Picos::from_ns(2),
            ..PramTiming::table2()
        };
        assert!(StrobeWindows::try_of(&inverted)
            .unwrap_err()
            .contains("tdqss_min"));
    }

    #[test]
    fn nor_interface_is_slower() {
        let nor = PramTiming::nor_interface();
        let t2 = PramTiming::table2();
        assert!(nor.nominal_read() > t2.nominal_read() * 100);
        assert!(nor.t_program_set > t2.t_program_overwrite());
        assert_eq!(nor.rab_count, 1);
    }
}
