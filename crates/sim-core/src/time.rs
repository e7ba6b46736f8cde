//! Simulated time.
//!
//! All timing in the reproduction is expressed as [`Picos`], an integer
//! count of picoseconds. Picosecond resolution lets us represent every
//! LPDDR2-NVM parameter from Table II of the paper exactly: the 400 MHz
//! interface clock is `tCK = 2.5 ns = 2500 ps`, and sub-nanosecond strobe
//! windows such as `tDQSS = 0.75–1.25 ns` are integral too.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};
use util::json::{FromJson, Json, JsonError, ToJson};

/// A span of (or point in) simulated time, in picoseconds.
///
/// `Picos` is a transparent `u64` newtype: cheap to copy, totally ordered,
/// and overflow-checked in debug builds through the standard operators.
/// A `u64` of picoseconds covers ~213 days of simulated time, far beyond
/// any experiment in this repository (the longest, a 60 ms PRAM erase
/// storm, is seven orders of magnitude shorter).
///
/// # Examples
///
/// ```
/// use sim_core::time::Picos;
///
/// let trcd = Picos::from_ns(80);
/// let trp = Picos::from_ns_f64(7.5); // 3 cycles at tCK = 2.5 ns
/// assert!(trcd > trp);
/// assert_eq!((trcd + trp).as_ns_f64(), 87.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Picos(pub u64);

impl ToJson for Picos {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

/// Every clock a spec, a state image or a recording carries decodes
/// here, so [`Picos::CEILING`] bounds them all.
impl FromJson for Picos {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let ps = u64::from_json(v).map_err(|e| e.context("Picos"))?;
        if ps > Picos::CEILING.0 {
            return Err(JsonError::new(format!(
                "Picos: {ps} ps lies past the 2^62 ps clock ceiling"
            )));
        }
        Ok(Picos(ps))
    }
}

impl Picos {
    /// The zero instant / empty duration.
    pub const ZERO: Picos = Picos(0);
    /// The maximum representable instant. Used as "never".
    pub const MAX: Picos = Picos(u64::MAX);
    /// The latest clock any input may carry: 2^62 ps, about 53 simulated
    /// days. Runs start near zero and last seconds, so a later clock in
    /// a spec, a state image or a recording is forged or corrupt, and
    /// refusing it on decode leaves a run's `Picos` adds (step
    /// durations, backend completions) 3 × 2^62 ps of headroom before
    /// they wrap.
    pub const CEILING: Picos = Picos(1 << 62);

    /// Creates a span from a whole number of picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Picos(ps)
    }

    /// Creates a span from a whole number of nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Picos(ns * 1_000)
    }

    /// Creates a span from a whole number of microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Picos(us * 1_000_000)
    }

    /// Creates a span from a whole number of milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Picos(ms * 1_000_000_000)
    }

    /// Creates a span from a fractional nanosecond count, rounding to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "invalid nanosecond value: {ns}"
        );
        Picos((ns * 1_000.0).round() as u64)
    }

    /// Creates a span from a fractional microsecond count.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0,
            "invalid microsecond value: {us}"
        );
        Picos((us * 1_000_000.0).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This span in fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This span in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This span in fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// This span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Picos) -> Option<Picos> {
        self.0.checked_add(rhs.0).map(Picos)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Picos) -> Picos {
        Picos(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Picos) -> Picos {
        Picos(self.0.min(other.0))
    }

    /// Is this the zero span?
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Picos {
    type Output = Picos;
    #[inline]
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    #[inline]
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    #[inline]
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    #[inline]
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    #[inline]
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<u64> for Picos {
    type Output = Picos;
    #[inline]
    fn div(self, rhs: u64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Div<Picos> for Picos {
    type Output = u64;
    /// How many whole `rhs` spans fit into `self`.
    #[inline]
    fn div(self, rhs: Picos) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Picos> for Picos {
    type Output = Picos;
    #[inline]
    fn rem(self, rhs: Picos) -> Picos {
        Picos(self.0 % rhs.0)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Picos {
    /// Human-oriented rendering with an automatically chosen unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// A clock frequency, used to convert between cycle counts and [`Picos`].
///
/// # Examples
///
/// ```
/// use sim_core::time::{Freq, Picos};
///
/// let pram_if = Freq::from_mhz(400);
/// assert_eq!(pram_if.cycle(), Picos::from_ps(2_500));
/// let pe = Freq::from_ghz(1);
/// assert_eq!(pe.cycles_to_time(1_000), Picos::from_ns(1_000));
/// assert_eq!(pe.time_to_cycles(Picos::from_ns(10)), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Freq {
    /// Frequency in hertz.
    hz: u64,
    /// `1e12 / hz`, derived once: the PRAM and PE models convert cycles
    /// to time on every simulated word, and a runtime division there
    /// costs more than the rest of the conversion.
    period: Picos,
}

/// Serializes as `{"hz": ..}` alone: the period is derived state.
impl util::json::ToJson for Freq {
    fn to_json(&self) -> util::json::Json {
        let hz = util::json::ToJson::to_json(&self.hz);
        util::json::Json::Obj(vec![("hz".to_string(), hz)])
    }
}

impl util::json::FromJson for Freq {
    fn from_json(v: &util::json::Json) -> Result<Self, util::json::JsonError> {
        let ctx = |e: util::json::JsonError| e.context("Freq");
        util::json::deny_unknown_keys(v, &["hz"]).map_err(ctx)?;
        let hz: u64 = util::json::field(v, "hz").map_err(ctx)?;
        if hz == 0 {
            return Err(util::json::JsonError::new(
                "Freq: frequency must be non-zero",
            ));
        }
        Ok(Freq::from_hz(hz))
    }
}

impl Freq {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Freq {
            hz,
            period: Picos(1_000_000_000_000 / hz),
        }
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        Self::from_hz(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz.
    pub fn from_ghz(ghz: u64) -> Self {
        Self::from_hz(ghz * 1_000_000_000)
    }

    /// The period of one clock cycle.
    ///
    /// Exact for every frequency whose period is an integral number of
    /// picoseconds (all frequencies used in this repository).
    pub fn cycle(self) -> Picos {
        self.period
    }

    /// Converts a cycle count to simulated time.
    pub fn cycles_to_time(self, cycles: u64) -> Picos {
        self.cycle() * cycles
    }

    /// Converts a time span to a whole number of cycles (rounding up, i.e.
    /// the number of cycles needed to cover the span).
    pub fn time_to_cycles(self, t: Picos) -> u64 {
        let c = self.cycle().as_ps();
        t.as_ps().div_ceil(c)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz.is_multiple_of(1_000_000_000) {
            write!(f, "{}GHz", self.hz / 1_000_000_000)
        } else if self.hz.is_multiple_of(1_000_000) {
            write!(f, "{}MHz", self.hz / 1_000_000)
        } else {
            write!(f, "{}Hz", self.hz)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picos_constructors_agree() {
        assert_eq!(Picos::from_ns(1), Picos::from_ps(1_000));
        assert_eq!(Picos::from_us(1), Picos::from_ns(1_000));
        assert_eq!(Picos::from_ms(1), Picos::from_us(1_000));
        assert_eq!(Picos::from_ns_f64(2.5), Picos::from_ps(2_500));
        assert_eq!(Picos::from_us_f64(0.75), Picos::from_ns(750));
    }

    #[test]
    fn decoding_refuses_clocks_past_the_ceiling() {
        let ceiling = Picos::CEILING.as_ps();
        let back = Picos::from_json(&Picos::CEILING.to_json()).unwrap();
        assert_eq!(back, Picos::CEILING);
        for ps in [ceiling + 1, u64::MAX - 999] {
            let err = Picos::from_json(&ps.to_json()).unwrap_err();
            assert!(err.to_string().contains("2^62 ps clock ceiling"), "{err}");
        }
        assert!(Picos::from_json(&Json::I64(-5)).is_err());
    }

    #[test]
    fn picos_arithmetic() {
        let a = Picos::from_ns(10);
        let b = Picos::from_ns(4);
        assert_eq!(a + b, Picos::from_ns(14));
        assert_eq!(a - b, Picos::from_ns(6));
        assert_eq!(a * 3, Picos::from_ns(30));
        assert_eq!(a / 2, Picos::from_ns(5));
        assert_eq!(a / b, 2);
        assert_eq!(a % b, Picos::from_ns(2));
        assert_eq!(b.saturating_sub(a), Picos::ZERO);
    }

    #[test]
    fn picos_sum_and_ordering() {
        let total: Picos = (1..=4).map(Picos::from_ns).sum();
        assert_eq!(total, Picos::from_ns(10));
        assert!(Picos::from_us(1) > Picos::from_ns(999));
        assert_eq!(Picos::from_ns(3).max(Picos::from_ns(7)), Picos::from_ns(7));
        assert_eq!(Picos::from_ns(3).min(Picos::from_ns(7)), Picos::from_ns(3));
    }

    #[test]
    fn picos_display_picks_unit() {
        assert_eq!(Picos::from_ps(12).to_string(), "12ps");
        assert_eq!(Picos::from_ns(100).to_string(), "100.000ns");
        assert_eq!(Picos::from_us(10).to_string(), "10.000us");
        assert_eq!(Picos::from_ms(60).to_string(), "60.000ms");
        assert_eq!(Picos::from_ms(2_000).to_string(), "2.000s");
    }

    #[test]
    fn table2_parameters_are_exact() {
        // Table II: tCK = 2.5 ns at 400 MHz.
        let f = Freq::from_mhz(400);
        assert_eq!(f.cycle(), Picos::from_ns_f64(2.5));
        // RL = 6 cycles, WL = 3 cycles, tRP = 3 cycles.
        assert_eq!(f.cycles_to_time(6), Picos::from_ns(15));
        assert_eq!(f.cycles_to_time(3), Picos::from_ns_f64(7.5));
        // tDQSCK window bounds are exact in picoseconds.
        assert_eq!(Picos::from_ns_f64(5.5).as_ps(), 5_500);
        assert_eq!(Picos::from_ns_f64(0.75).as_ps(), 750);
    }

    #[test]
    fn freq_conversions_round_trip() {
        let f = Freq::from_ghz(1);
        assert_eq!(f.time_to_cycles(f.cycles_to_time(123)), 123);
        // Rounds up partial cycles.
        assert_eq!(f.time_to_cycles(Picos::from_ps(1)), 1);
        assert_eq!(f.time_to_cycles(Picos::from_ps(1_001)), 2);
    }

    #[test]
    #[should_panic(expected = "frequency must be non-zero")]
    fn zero_frequency_rejected() {
        let _ = Freq::from_hz(0);
    }

    #[test]
    fn freq_json_carries_only_hz() {
        use util::json::{FromJson, ToJson};
        let f = Freq::from_mhz(66);
        assert_eq!(f.to_json_string(), r#"{"hz":66000000}"#);
        let back = Freq::from_json_str(&f.to_json_string()).unwrap();
        assert_eq!((back, back.cycle()), (f, Picos::from_ps(15_151)));
        assert!(Freq::from_json_str(r#"{"hz":0}"#).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid nanosecond value")]
    fn negative_ns_rejected() {
        let _ = Picos::from_ns_f64(-1.0);
    }
}
