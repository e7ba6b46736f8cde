//! Run outcomes and derived metrics.

use crate::config::{SystemId, SystemKind};
use accel::exec::ExecReport;
use sim_core::energy::{EnergyBook, Joules};
use sim_core::fault::FaultCounters;
use sim_core::probe::AttrSummary;
use sim_core::time::Picos;
use util::json::{field, FromJson, Json, JsonError, ToJson};
use util::telemetry::MetricSet;
use workloads::Kernel;

/// Execution-time decomposition (the Fig. 16 stack).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Kernel offload: image transfer + agent scheduling.
    pub offload: Picos,
    /// Staging input data into the accelerator (heterogeneous only).
    pub staging_in: Picos,
    /// PE compute time (summed over agents, then normalized by agents so
    /// it composes with wall-clock phases).
    pub compute: Picos,
    /// PE memory-stall time (same normalization).
    pub memory: Picos,
    /// Writing results back to external storage (heterogeneous only).
    pub staging_out: Picos,
}

util::json_struct!(Breakdown {
    offload,
    staging_in,
    compute,
    memory,
    staging_out
});

impl Breakdown {
    /// Total decomposed time.
    pub fn total(&self) -> Picos {
        self.offload + self.staging_in + self.compute + self.memory + self.staging_out
    }

    /// Fractions in Fig. 16 stack order: offload, staging-in, compute,
    /// memory, staging-out.
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total().as_ps() as f64;
        if t == 0.0 {
            return [0.0; 5];
        }
        [
            self.offload.as_ps() as f64 / t,
            self.staging_in.as_ps() as f64 / t,
            self.compute.as_ps() as f64 / t,
            self.memory.as_ps() as f64 / t,
            self.staging_out.as_ps() as f64 / t,
        ]
    }
}

/// The complete result of simulating one workload on one configuration.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Which system ran: a Table I preset, or a custom spec's name.
    pub system: SystemId,
    /// Which kernel ran.
    pub kernel: Kernel,
    /// End-to-end wall-clock time (offload + staging + execution +
    /// final writeback).
    pub total_time: Picos,
    /// Bytes the kernel exchanged with its data store during execution.
    pub data_bytes: u64,
    /// The execution-phase report (IPC/power series and cache stats).
    pub exec: ExecReport,
    /// Time decomposition.
    pub breakdown: Breakdown,
    /// Merged energy ledger across every component.
    pub energy: EnergyBook,
    /// End-of-run telemetry metrics, keyed by component namespace
    /// (`pram.*`, `pe.*`, `cache.*`, …). Empty — and absent from the
    /// JSON report — unless the spec's telemetry knob was on.
    pub metrics: MetricSet,
    /// Fault-injection degradation ledger: what the spec's
    /// [`FaultPlan`](sim_core::fault::FaultPlan) injected and how the
    /// resilience machinery absorbed it. `None` — and absent from the
    /// JSON report — unless the spec carried a fault plan; all-zero
    /// counters under an inert plan still serialize, recording that
    /// injection was armed.
    pub degraded: Option<FaultCounters>,
    /// Per-request latency attribution: cause totals, per-scope
    /// breakdowns, the top-K worst requests and the sim-time windowed
    /// series. `None` — and absent from the JSON report (where it
    /// serializes as `latency_attribution`) — unless the spec's
    /// telemetry knob had `attribution` on.
    pub attr: Option<AttrSummary>,
}

util::json_struct!(RunOutcome {
    system,
    kernel,
    total_time,
    data_bytes,
    exec,
    breakdown,
    energy;
    metrics,
    degraded,
    attr as "latency_attribution"
});

impl RunOutcome {
    /// Data-processing bandwidth in bytes/second over the whole run —
    /// the Fig. 13/15 metric.
    pub fn bandwidth(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        self.data_bytes as f64 / self.total_time.as_secs_f64()
    }

    /// Total energy.
    pub fn total_energy(&self) -> Joules {
        self.energy.total()
    }

    /// Aggregate IPC over the execution phase.
    pub fn total_ipc(&self) -> f64 {
        self.exec.total_ipc()
    }
}

/// Results of sweeping one workload across many systems (or the whole
/// suite — one entry per `(system, kernel)` pair).
#[derive(Debug, Clone, Default)]
pub struct SuiteResult {
    /// All outcomes, in run order.
    pub outcomes: Vec<RunOutcome>,
}

// Hand-written so the suite-level `metrics` and `degraded` aggregates
// are recomputed on every serialize (sorted keys by `MetricSet`
// construction, so the text is deterministic) and omitted when no cell
// recorded anything.
impl ToJson for SuiteResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![("outcomes".to_string(), self.outcomes.to_json())];
        let agg = self.aggregate_metrics();
        if !agg.is_empty() {
            fields.push(("metrics".to_string(), agg.to_json()));
        }
        if let Some(d) = self.aggregate_degraded() {
            fields.push(("degraded".to_string(), d.to_json()));
        }
        Json::Obj(fields)
    }
}

impl FromJson for SuiteResult {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        // The aggregate is derived, never parsed: a round trip re-derives
        // it from the outcomes, keeping serialize(parse(text)) == text.
        Ok(SuiteResult {
            outcomes: field(v, "outcomes")?,
        })
    }
}

impl SuiteResult {
    /// Looks up a preset's outcome.
    pub fn get(&self, system: SystemKind, kernel: Kernel) -> Option<&RunOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.system == system && o.kernel == kernel)
    }

    /// Looks up any outcome — preset or custom — by its report name.
    pub fn get_named(&self, system: &str, kernel: Kernel) -> Option<&RunOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.system.name() == system && o.kernel == kernel)
    }

    /// Bandwidth of `(system, kernel)` normalized to `baseline` on the
    /// same kernel — how Fig. 15 reports its bars. `None` when either
    /// outcome is missing from the suite (a partial sweep degrades
    /// gracefully instead of aborting).
    pub fn normalized_bandwidth(
        &self,
        system: SystemKind,
        baseline: SystemKind,
        kernel: Kernel,
    ) -> Option<f64> {
        let s = self.get(system, kernel)?;
        let b = self.get(baseline, kernel)?;
        Some(s.bandwidth() / b.bandwidth())
    }

    /// Geometric mean of normalized bandwidth across every kernel present
    /// for both systems.
    pub fn mean_normalized_bandwidth(&self, system: SystemKind, baseline: SystemKind) -> f64 {
        let mut acc = 0.0;
        let mut n = 0u32;
        for o in &self.outcomes {
            if o.system == system {
                if let Some(b) = self.get(baseline, o.kernel) {
                    acc += (o.bandwidth() / b.bandwidth()).ln();
                    n += 1;
                }
            }
        }
        assert!(
            n > 0,
            "no overlapping kernels between {system} and {baseline}"
        );
        (acc / n as f64).exp()
    }

    /// Mean energy of `system` relative to `baseline` (Fig. 17 style).
    pub fn mean_relative_energy(&self, system: SystemKind, baseline: SystemKind) -> f64 {
        let mut acc = 0.0;
        let mut n = 0u32;
        for o in &self.outcomes {
            if o.system == system {
                if let Some(b) = self.get(baseline, o.kernel) {
                    let rel =
                        o.total_energy().as_j() / b.total_energy().as_j().max(f64::MIN_POSITIVE);
                    acc += rel.ln();
                    n += 1;
                }
            }
        }
        assert!(
            n > 0,
            "no overlapping kernels between {system} and {baseline}"
        );
        (acc / n as f64).exp()
    }

    /// Merges every outcome's telemetry metrics into one suite-wide set:
    /// counters and latency histograms accumulate across cells, gauges
    /// sum. Empty when telemetry was off everywhere.
    pub fn aggregate_metrics(&self) -> MetricSet {
        let mut agg = MetricSet::new();
        for o in &self.outcomes {
            agg.merge(&o.metrics);
        }
        agg
    }

    /// Sums every outcome's degradation ledger. `None` when fault
    /// injection was armed in no cell.
    pub fn aggregate_degraded(&self) -> Option<FaultCounters> {
        let mut agg: Option<FaultCounters> = None;
        for o in &self.outcomes {
            if let Some(d) = &o.degraded {
                agg.get_or_insert_with(FaultCounters::default).merge(d);
            }
        }
        agg
    }

    /// Serializes to pretty JSON for machine-readable experiment records.
    pub fn to_json(&self) -> String {
        util::json::ToJson::to_json_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = Breakdown {
            offload: Picos::from_us(1),
            staging_in: Picos::from_us(4),
            compute: Picos::from_us(3),
            memory: Picos::from_us(2),
            staging_out: Picos::from_us(10),
        };
        let f = b.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[4] - 0.5).abs() < 1e-12);
        assert_eq!(b.total(), Picos::from_us(20));
    }

    #[test]
    fn empty_breakdown_is_safe() {
        assert_eq!(Breakdown::default().fractions(), [0.0; 5]);
    }
}
