//! Open-loop multi-tenant traffic generation for fleet serving.
//!
//! The paper evaluates closed batches of kernels; a production fleet
//! sees open-loop arrivals from thousands of tenants instead. This
//! module provides the demand side of that picture:
//!
//! * [`ArrivalProcess`] / [`ArrivalGen`] — seeded open-loop arrival
//!   timestamp generators: Poisson, bursty (a two-state Markov-modulated
//!   Poisson process) and diurnal (sinusoidally rate-modulated, sampled
//!   by thinning). Timestamps are strictly increasing and a pure
//!   function of `(process, seed)`.
//! * [`QosClass`] / [`ClassMix`] — the three service classes tenants
//!   buy, and the population mix across them.
//! * [`TenantModel`] — a deterministic tenant population: every
//!   per-tenant property (class, preferred kernel) and every per-request
//!   draw (owning tenant, kernel) is a stateless [`stream_seed`] hash,
//!   so request `seq` is the same no matter when, in what order, or on
//!   which thread it is asked for.
//!
//! The [`fleet`](crate::fleet) module consumes [`Request`]s from here
//! and prices them against the calibrated analytic execution model.

use sim_core::time::Picos;
use util::rng::{stream_seed, stream_unit, Rng64};
use workloads::Kernel;

use crate::spec::SpecError;

/// Number of QoS classes (the length of [`QosClass::ALL`]).
pub const NUM_CLASSES: usize = 3;

/// The service class a tenant bought. Classes change how the QoS-aware
/// balancer treats a request under load; they never change its price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Interactive traffic: dispatched to the least-loaded accelerator,
    /// never rejected, never degraded.
    LatencySensitive,
    /// Bulk traffic with a service objective: admitted even under load
    /// but counted `degraded` once backlog passes the admission limit.
    Throughput,
    /// Scavenger traffic: rejected outright when backlog passes the
    /// admission limit.
    BestEffort,
}

util::json_enum!(QosClass {
    LatencySensitive,
    Throughput,
    BestEffort
});

impl QosClass {
    /// Every class, in serialization order.
    pub const ALL: [QosClass; NUM_CLASSES] = [
        QosClass::LatencySensitive,
        QosClass::Throughput,
        QosClass::BestEffort,
    ];

    /// Stable snake_case key used in report JSON and CLI output.
    pub fn key(self) -> &'static str {
        match self {
            QosClass::LatencySensitive => "latency_sensitive",
            QosClass::Throughput => "throughput",
            QosClass::BestEffort => "best_effort",
        }
    }

    /// Inverse of [`key`](Self::key).
    pub fn from_key(key: &str) -> Option<QosClass> {
        QosClass::ALL.into_iter().find(|c| c.key() == key)
    }
}

/// Population weights across the three QoS classes. Weights are
/// relative, not probabilities — `{1, 2, 1}` and `{0.25, 0.5, 0.25}`
/// describe the same mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Relative weight of latency-sensitive tenants.
    pub latency_sensitive: f64,
    /// Relative weight of throughput tenants.
    pub throughput: f64,
    /// Relative weight of best-effort tenants.
    pub best_effort: f64,
}

util::json_struct!(ClassMix {
    latency_sensitive,
    throughput,
    best_effort
});

impl Default for ClassMix {
    /// A production-flavored default: a latency-sensitive minority over
    /// a throughput majority with a best-effort scavenger tier.
    fn default() -> Self {
        ClassMix {
            latency_sensitive: 0.2,
            throughput: 0.5,
            best_effort: 0.3,
        }
    }
}

impl ClassMix {
    /// Validates the weights: finite, non-negative, positive sum.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the offending weight.
    pub fn validate(&self) -> Result<(), SpecError> {
        for (name, w) in [
            ("latency_sensitive", self.latency_sensitive),
            ("throughput", self.throughput),
            ("best_effort", self.best_effort),
        ] {
            if !w.is_finite() || w < 0.0 {
                return Err(SpecError::fleet(format!(
                    "class mix weight {name} must be finite and >= 0, got {w}"
                )));
            }
        }
        if self.latency_sensitive + self.throughput + self.best_effort <= 0.0 {
            return Err(SpecError::fleet("class mix weights must not all be zero"));
        }
        Ok(())
    }

    /// Cumulative class boundaries in `[0, 1]`: a uniform draw below
    /// the first is latency-sensitive, below the second is throughput,
    /// else best-effort.
    fn thresholds(&self) -> (f64, f64) {
        let total = self.latency_sensitive + self.throughput + self.best_effort;
        let ls = self.latency_sensitive / total;
        (ls, ls + self.throughput / total)
    }
}

/// A seeded open-loop arrival process. All rates are in requests per
/// simulated second; generated timestamps are strictly increasing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant rate.
    Poisson {
        /// Mean arrival rate.
        rate_per_s: f64,
    },
    /// A two-state Markov-modulated Poisson process: exponentially
    /// distributed calm and burst episodes, each with its own arrival
    /// rate — the open-loop shape that drives requests into the 60 ms
    /// erase-blocking window.
    Bursty {
        /// Arrival rate during calm episodes.
        base_per_s: f64,
        /// Arrival rate during burst episodes.
        burst_per_s: f64,
        /// Mean burst-episode length in milliseconds.
        mean_burst_ms: f64,
        /// Mean calm-episode length in milliseconds.
        mean_calm_ms: f64,
    },
    /// Sinusoidally rate-modulated arrivals (a compressed day/night
    /// cycle), sampled exactly by thinning against the peak rate.
    Diurnal {
        /// Cycle-average arrival rate.
        mean_per_s: f64,
        /// Relative modulation depth in `[0, 1]`: the rate swings
        /// between `mean * (1 - swing)` and `mean * (1 + swing)`.
        swing: f64,
        /// Cycle period in milliseconds.
        period_ms: f64,
    },
}

util::json_enum!(ArrivalProcess {
    Poisson { rate_per_s },
    Bursty {
        base_per_s,
        burst_per_s,
        mean_burst_ms,
        mean_calm_ms,
    },
    Diurnal {
        mean_per_s,
        swing,
        period_ms,
    },
});

impl ArrivalProcess {
    /// Short lowercase tag for CLI output and test labels.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }

    /// The long-run mean arrival rate in requests per second.
    pub fn mean_rate_per_s(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
            ArrivalProcess::Bursty {
                base_per_s,
                burst_per_s,
                mean_burst_ms,
                mean_calm_ms,
            } => {
                // Time-weighted over the stationary episode lengths.
                (base_per_s * mean_calm_ms + burst_per_s * mean_burst_ms)
                    / (mean_calm_ms + mean_burst_ms)
            }
            ArrivalProcess::Diurnal { mean_per_s, .. } => mean_per_s,
        }
    }

    /// Validates rates and shape parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] describing the offending parameter.
    pub fn validate(&self) -> Result<(), SpecError> {
        let positive = |name: &str, v: f64| -> Result<(), SpecError> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(SpecError::fleet(format!(
                    "arrival parameter {name} must be finite and > 0, got {v}"
                )))
            }
        };
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => positive("rate_per_s", rate_per_s),
            ArrivalProcess::Bursty {
                base_per_s,
                burst_per_s,
                mean_burst_ms,
                mean_calm_ms,
            } => {
                positive("base_per_s", base_per_s)?;
                positive("burst_per_s", burst_per_s)?;
                positive("mean_burst_ms", mean_burst_ms)?;
                positive("mean_calm_ms", mean_calm_ms)
            }
            ArrivalProcess::Diurnal {
                mean_per_s,
                swing,
                period_ms,
            } => {
                positive("mean_per_s", mean_per_s)?;
                positive("period_ms", period_ms)?;
                if !swing.is_finite() || !(0.0..=1.0).contains(&swing) {
                    return Err(SpecError::fleet(format!(
                        "arrival parameter swing must be in [0, 1], got {swing}"
                    )));
                }
                Ok(())
            }
        }
    }
}

/// Converts an exponential draw in seconds to a strictly positive
/// picosecond step.
fn step_ps(dt_s: f64) -> u64 {
    ((dt_s * 1e12).ceil() as u64).max(1)
}

/// A seeded arrival-timestamp generator for one [`ArrivalProcess`].
///
/// The sequence is a pure function of `(process, seed)`: two generators
/// built alike produce identical timestamps forever. Timestamps are
/// strictly increasing (every step is at least 1 ps) up to
/// [`Picos::CEILING`]. Past it the clock saturates at `u64::MAX` ps
/// instead of wrapping, and [`crate::fleet::run_fleet_on`] refuses the
/// arrival.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: Rng64,
    now_ps: u64,
    /// Bursty state: whether the current episode is a burst, and when
    /// it ends.
    in_burst: bool,
    episode_until_ps: u64,
}

impl ArrivalGen {
    /// A generator starting at simulated time zero.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the process parameters are invalid.
    pub fn new(process: ArrivalProcess, seed: u64) -> Result<Self, SpecError> {
        process.validate()?;
        let mut rng = Rng64::seed(stream_seed(seed, &[STREAM_ARRIVALS]));
        let episode_until_ps = match process {
            ArrivalProcess::Bursty { mean_calm_ms, .. } => {
                // Episodes start calm; the first boundary is one
                // exponential calm residence away.
                step_ps(rng.exp_f64(1_000.0 / mean_calm_ms))
            }
            _ => 0,
        };
        Ok(ArrivalGen {
            process,
            rng,
            now_ps: 0,
            in_burst: false,
            episode_until_ps,
        })
    }

    /// The next arrival timestamp.
    pub fn next_arrival(&mut self) -> Picos {
        match self.process {
            ArrivalProcess::Poisson { rate_per_s } => {
                self.now_ps = self
                    .now_ps
                    .saturating_add(step_ps(self.rng.exp_f64(rate_per_s)));
            }
            ArrivalProcess::Bursty {
                base_per_s,
                burst_per_s,
                mean_burst_ms,
                mean_calm_ms,
            } => loop {
                let rate = if self.in_burst {
                    burst_per_s
                } else {
                    base_per_s
                };
                let candidate = self.now_ps.saturating_add(step_ps(self.rng.exp_f64(rate)));
                if candidate <= self.episode_until_ps || candidate > Picos::CEILING.as_ps() {
                    self.now_ps = candidate;
                    break;
                }
                // The candidate falls past the episode boundary: jump to
                // the boundary, flip state, draw the next residence and
                // redraw the arrival — valid because the exponential is
                // memoryless.
                self.now_ps = self.episode_until_ps;
                self.in_burst = !self.in_burst;
                let mean_ms = if self.in_burst {
                    mean_burst_ms
                } else {
                    mean_calm_ms
                };
                self.episode_until_ps = self
                    .now_ps
                    .saturating_add(step_ps(self.rng.exp_f64(1_000.0 / mean_ms)));
            },
            ArrivalProcess::Diurnal {
                mean_per_s,
                swing,
                period_ms,
            } => {
                // Thinning: propose at the peak rate, accept with
                // probability rate(t) / peak. Exact for any bounded
                // rate function; proposals only move time forward.
                let peak = mean_per_s * (1.0 + swing);
                loop {
                    self.now_ps = self.now_ps.saturating_add(step_ps(self.rng.exp_f64(peak)));
                    if self.now_ps > Picos::CEILING.as_ps() {
                        break;
                    }
                    let t_ms = self.now_ps as f64 / 1e9;
                    let phase = std::f64::consts::TAU * (t_ms / period_ms);
                    let rate = mean_per_s * (1.0 + swing * phase.sin());
                    if self.rng.unit_f64() * peak <= rate {
                        break;
                    }
                }
            }
        }
        Picos::from_ps(self.now_ps)
    }
}

impl Iterator for ArrivalGen {
    type Item = Picos;

    fn next(&mut self) -> Option<Picos> {
        Some(self.next_arrival())
    }
}

/// One offered request: when it arrived, who owns it, and what it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival ordinal (0-based); the attribution index on fleet runs.
    pub seq: u64,
    /// Arrival time.
    pub at: Picos,
    /// Owning tenant, in `0..tenants`.
    pub tenant: u32,
    /// The tenant's service class.
    pub class: QosClass,
    /// The kernel the request runs.
    pub kernel: Kernel,
}

// Stream labels decorrelating the stateless draw families. Values are
// arbitrary but frozen: changing one changes every seeded fleet run.
const STREAM_ARRIVALS: u64 = 0xF1EE_7001;
const STREAM_CLASS: u64 = 0xF1EE_7002;
const STREAM_PREF: u64 = 0xF1EE_7003;
const STREAM_TENANT: u64 = 0xF1EE_7004;
const STREAM_KMIX: u64 = 0xF1EE_7005;
const STREAM_KPICK: u64 = 0xF1EE_7006;

/// Probability that a request runs its tenant's preferred kernel
/// rather than a uniform draw from the pool — gives each tenant a
/// recognizable workload character without per-tenant configuration.
const PREFERRED_KERNEL_P: f64 = 0.7;

/// A deterministic tenant population.
///
/// Every query is a stateless hash of `(seed, labels...)` — no draw
/// order, no shared generator — so per-request properties can be asked
/// for from any thread, in any order, with identical results, and any
/// request of a run can be rebuilt from the seed alone.
#[derive(Debug, Clone)]
pub struct TenantModel {
    seed: u64,
    tenants: u32,
    thresholds: (f64, f64),
    kernels: Vec<Kernel>,
}

impl TenantModel {
    /// A population of `tenants` tenants drawing kernels from `kernels`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the population is empty, the kernel
    /// pool is empty, or the mix is invalid.
    pub fn new(
        seed: u64,
        tenants: u32,
        mix: &ClassMix,
        kernels: &[Kernel],
    ) -> Result<Self, SpecError> {
        if tenants == 0 {
            return Err(SpecError::fleet("fleet needs at least one tenant"));
        }
        if kernels.is_empty() {
            return Err(SpecError::fleet("fleet kernel pool must not be empty"));
        }
        mix.validate()?;
        Ok(TenantModel {
            seed,
            tenants,
            thresholds: mix.thresholds(),
            kernels: kernels.to_vec(),
        })
    }

    /// Population size.
    pub fn tenants(&self) -> u32 {
        self.tenants
    }

    /// The kernel pool requests draw from.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// The service class tenant `tenant` bought.
    pub fn class_of(&self, tenant: u32) -> QosClass {
        let u = stream_unit(self.seed, &[STREAM_CLASS, u64::from(tenant)]);
        if u < self.thresholds.0 {
            QosClass::LatencySensitive
        } else if u < self.thresholds.1 {
            QosClass::Throughput
        } else {
            QosClass::BestEffort
        }
    }

    /// The kernel tenant `tenant` favors.
    pub fn preferred_kernel(&self, tenant: u32) -> Kernel {
        let i = stream_seed(self.seed, &[STREAM_PREF, u64::from(tenant)]);
        self.kernels[(i % self.kernels.len() as u64) as usize]
    }

    /// The tenant owning arrival `seq` (uniform across the population).
    pub fn tenant_of(&self, seq: u64) -> u32 {
        (stream_seed(self.seed, &[STREAM_TENANT, seq]) % u64::from(self.tenants)) as u32
    }

    /// The kernel arrival `seq` runs: usually its tenant's preferred
    /// kernel, sometimes a uniform draw from the pool.
    pub fn kernel_of(&self, seq: u64, tenant: u32) -> Kernel {
        if stream_unit(self.seed, &[STREAM_KMIX, seq]) < PREFERRED_KERNEL_P {
            self.preferred_kernel(tenant)
        } else {
            let i = stream_seed(self.seed, &[STREAM_KPICK, seq]);
            self.kernels[(i % self.kernels.len() as u64) as usize]
        }
    }

    /// Materializes arrival `seq` at time `at` into a full [`Request`].
    pub fn request(&self, seq: u64, at: Picos) -> Request {
        let tenant = self.tenant_of(seq);
        Request {
            seq,
            at,
            tenant,
            class: self.class_of(tenant),
            kernel: self.kernel_of(seq, tenant),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::for_each_case;
    use util::json::{FromJson, ToJson};

    /// A randomized process of any of the three families.
    fn random_process(rng: &mut Rng64) -> ArrivalProcess {
        match rng.range_u64(0, 2) {
            0 => ArrivalProcess::Poisson {
                rate_per_s: rng.range_f64(200.0, 50_000.0),
            },
            1 => ArrivalProcess::Bursty {
                base_per_s: rng.range_f64(200.0, 5_000.0),
                burst_per_s: rng.range_f64(10_000.0, 80_000.0),
                mean_burst_ms: rng.range_f64(1.0, 20.0),
                mean_calm_ms: rng.range_f64(5.0, 50.0),
            },
            _ => ArrivalProcess::Diurnal {
                mean_per_s: rng.range_f64(500.0, 50_000.0),
                swing: rng.range_f64(0.0, 0.95),
                period_ms: rng.range_f64(5.0, 100.0),
            },
        }
    }

    #[test]
    fn arrivals_are_byte_deterministic_per_seed() {
        for_each_case!(48, |rng| {
            let process = random_process(&mut rng);
            let seed = rng.next_u64();
            let take = |s: u64| -> Vec<u64> {
                ArrivalGen::new(process, s)
                    .unwrap()
                    .take(256)
                    .map(|t| t.as_ps())
                    .collect()
            };
            assert_eq!(
                take(seed),
                take(seed),
                "{}: seed must pin the stream",
                process.label()
            );
            let other = take(seed ^ 0xDEAD_BEEF);
            assert_ne!(
                take(seed),
                other,
                "{}: distinct seeds must decorrelate",
                process.label()
            );
        });
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        for_each_case!(48, |rng| {
            let process = random_process(&mut rng);
            let mut gen = ArrivalGen::new(process, rng.next_u64()).unwrap();
            let mut last = 0u64;
            for _ in 0..2_000 {
                let t = gen.next_arrival().as_ps();
                assert!(t > last, "{}: {t} !> {last}", process.label());
                last = t;
            }
        });
    }

    #[test]
    fn empirical_rate_tracks_the_configured_mean() {
        for_each_case!(24, |rng| {
            let process = random_process(&mut rng);
            let mut gen = ArrivalGen::new(process, rng.next_u64()).unwrap();
            // Enough arrivals to cover many bursty episodes and diurnal
            // cycles, so the empirical mean converges.
            let n = 60_000u64;
            let mut last = Picos::ZERO;
            for _ in 0..n {
                last = gen.next_arrival();
            }
            let measured = n as f64 / last.as_secs_f64();
            let expected = process.mean_rate_per_s();
            let err = (measured - expected).abs() / expected;
            assert!(
                err < 0.15,
                "{}: measured {measured:.0}/s vs configured {expected:.0}/s ({:.0}% off)",
                process.label(),
                err * 100.0
            );
        });
    }

    #[test]
    fn invalid_processes_are_rejected() {
        for bad in [
            ArrivalProcess::Poisson { rate_per_s: 0.0 },
            ArrivalProcess::Poisson {
                rate_per_s: f64::NAN,
            },
            ArrivalProcess::Bursty {
                base_per_s: 100.0,
                burst_per_s: -1.0,
                mean_burst_ms: 5.0,
                mean_calm_ms: 20.0,
            },
            ArrivalProcess::Diurnal {
                mean_per_s: 100.0,
                swing: 1.5,
                period_ms: 50.0,
            },
        ] {
            assert!(ArrivalGen::new(bad, 1).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn arrival_process_round_trips_through_json() {
        let mut rng = Rng64::seed(5);
        for _ in 0..32 {
            let p = random_process(&mut rng);
            let text = p.to_json_pretty();
            let back = ArrivalProcess::from_json_str(&text).unwrap();
            assert_eq!(back, p);
            assert_eq!(back.to_json_pretty(), text);
        }
    }

    #[test]
    fn tenant_draws_are_stateless_and_in_range() {
        for_each_case!(32, |rng| {
            let tenants = rng.range_u64(1, 2_000) as u32;
            let kernels: Vec<Kernel> = Kernel::ALL
                .into_iter()
                .take(rng.range_usize(1, Kernel::ALL.len()))
                .collect();
            let m =
                TenantModel::new(rng.next_u64(), tenants, &ClassMix::default(), &kernels).unwrap();
            for seq in 0..200u64 {
                let r = m.request(seq, Picos::from_ps(seq));
                assert!(r.tenant < tenants);
                assert!(kernels.contains(&r.kernel));
                assert_eq!(r.class, m.class_of(r.tenant));
                // Stateless: asking again (out of order) is identical.
                assert_eq!(m.request(seq, Picos::from_ps(seq)), r);
            }
        });
    }

    #[test]
    fn class_mix_shapes_the_population() {
        let mix = ClassMix {
            latency_sensitive: 1.0,
            throughput: 2.0,
            best_effort: 1.0,
        };
        let m = TenantModel::new(99, 40_000, &mix, &[Kernel::Trisolv]).unwrap();
        let mut counts = [0u32; NUM_CLASSES];
        for t in 0..m.tenants() {
            counts[QosClass::ALL
                .iter()
                .position(|&c| c == m.class_of(t))
                .unwrap()] += 1;
        }
        let total = m.tenants() as f64;
        for (share, expected) in counts.iter().zip([0.25, 0.5, 0.25]) {
            let share = f64::from(*share) / total;
            assert!(
                (share - expected).abs() < 0.02,
                "class share {share:.3} vs expected {expected}"
            );
        }
    }

    #[test]
    fn degenerate_mixes_are_rejected() {
        let zero = ClassMix {
            latency_sensitive: 0.0,
            throughput: 0.0,
            best_effort: 0.0,
        };
        assert!(zero.validate().is_err());
        let negative = ClassMix {
            latency_sensitive: -0.5,
            ..ClassMix::default()
        };
        assert!(negative.validate().is_err());
        assert!(TenantModel::new(1, 0, &ClassMix::default(), &[Kernel::Lu]).is_err());
        assert!(TenantModel::new(1, 10, &ClassMix::default(), &[]).is_err());
    }

    #[test]
    fn single_class_mix_assigns_everyone_to_it() {
        let mix = ClassMix {
            latency_sensitive: 0.0,
            throughput: 0.0,
            best_effort: 3.0,
        };
        let m = TenantModel::new(4, 500, &mix, &[Kernel::Gemver]).unwrap();
        assert!((0..500).all(|t| m.class_of(t) == QosClass::BestEffort));
    }

    #[test]
    fn qos_class_keys_round_trip() {
        for c in QosClass::ALL {
            assert_eq!(QosClass::from_key(c.key()), Some(c));
        }
        assert_eq!(QosClass::from_key("nope"), None);
    }
}
