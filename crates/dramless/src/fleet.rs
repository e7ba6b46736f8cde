//! Fleet-scale multi-tenant serving over simulated accelerators.
//!
//! The missing layer between the paper's closed kernel batches and the
//! ROADMAP's north star — a production service: open-loop traffic from
//! a [`TenantModel`] population is dispatched by a pluggable load
//! balancer across `N` simulated accelerators, each running the same
//! composed [`SystemSpec`] stack. Requests are priced with the
//! calibrated analytic execution model, then queue against live fleet
//! state the analytic tier cannot see alone:
//!
//! * **Slot queueing** — each accelerator serves a bounded number of
//!   concurrent kernels; excess requests wait ([`Cause::QueueWait`]).
//! * **Partition contention** — a tenant's working set lives in one of
//!   its accelerator's PRAM partitions; concurrent requests hashed to
//!   the same partition serialize ([`Cause::PartitionConflict`]).
//! * **Erase-blocking windows** — accumulated writes on PRAM-bearing
//!   media periodically trigger the 60 ms selective-erase window from
//!   `pram::PramTiming`, stalling the partition
//!   ([`Cause::EraseBlocked`]) — the driver of fleet p99.9.
//!
//! Every per-request latency decomposes into those causes plus service
//! time, conserving by construction: an [`AttrSpan`] buckets each
//! request, and its tenant-tagged [`AttrRecord`] folds into an
//! [`AttrCollector`] the serving loop owns. The same pass tallies the
//! log2 latency histograms per tenant, per QoS class and fleet-wide.
//!
//! Determinism: the serving loop is one serial, seeded pass, and every
//! tally in it is an integer sum, so a fleet report is byte-identical at
//! any thread count and replays entirely from its seed. The worker pool
//! only prices the cell's kernels, in kernel order.

use sim_core::probe::AttrSpan;
use sim_core::time::Picos;
use util::fxhash::FxHashMap;
use util::json::{field, FromJson, Json, JsonError, ToJson};
use util::pool::{self, Pool};
use util::rng::stream_seed;
use util::telemetry::{
    AttrCollector, AttrRecord, AttrScope, AttrSummary, Cause, LatencyHistogram, TopRequest,
};
use workloads::{Kernel, Scale, Workload};

use crate::analytic::ExecModel;
use crate::config::{SystemParams, MAX_AGENTS};
use crate::spec::{Medium, SpecError, SystemSpec};
use crate::traffic::{ArrivalGen, ArrivalProcess, ClassMix, QosClass, TenantModel, NUM_CLASSES};
use accel::exec::AccelConfig;

/// Stream label for the tenant → partition hash (see `traffic.rs` for
/// the sibling labels; values are frozen).
const STREAM_PART: u64 = 0xF1EE_7007;

/// PRAM partitions per accelerator a tenant's working set can hash to —
/// the paper's per-chip partition count.
const PARTITIONS: usize = 8;

/// The most kernel slots a fleet may have (`accelerators ×
/// slots_per_accel`). The dispatcher scans every slot on each request
/// and the serving loop allocates them all up front, so an absurd shape
/// is refused by [`FleetSpec::validate`] instead of stalling or aborting
/// on the allocation.
pub const MAX_FLEET_SLOTS: usize = 1 << 16;

/// How requests are spread across the fleet's accelerators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BalancerKind {
    /// Rotate through accelerators by arrival ordinal, load-blind.
    RoundRobin,
    /// Dispatch to the accelerator with the shortest slot backlog.
    LeastLoaded,
    /// Least-loaded dispatch plus admission control: past the backlog
    /// limit, best-effort requests are rejected and throughput-class
    /// requests are admitted but counted degraded. Latency-sensitive
    /// requests are always admitted untouched.
    QosAware,
}

util::json_enum!(BalancerKind {
    RoundRobin,
    LeastLoaded,
    QosAware
});

impl BalancerKind {
    /// Every balancer, in serialization order.
    pub const ALL: [BalancerKind; 3] = [
        BalancerKind::RoundRobin,
        BalancerKind::LeastLoaded,
        BalancerKind::QosAware,
    ];

    /// Stable kebab-case label used by the CLI and test names.
    pub fn label(self) -> &'static str {
        match self {
            BalancerKind::RoundRobin => "round-robin",
            BalancerKind::LeastLoaded => "least-loaded",
            BalancerKind::QosAware => "qos-aware",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(label: &str) -> Option<BalancerKind> {
        BalancerKind::ALL.into_iter().find(|b| b.label() == label)
    }
}

/// A serving cell: the system composition, fleet shape, tenant
/// population and offered traffic of one fleet run. Serializable — the
/// CLI's `serve --fleet fleet.json` input.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Display name; defaults to the balancer label when absent.
    pub name: Option<String>,
    /// The composition every accelerator in the fleet runs.
    pub system: SystemSpec,
    /// Accelerators in the cell.
    pub accelerators: usize,
    /// Concurrent kernel slots per accelerator.
    pub slots_per_accel: usize,
    /// The dispatch policy.
    pub balancer: BalancerKind,
    /// Tenant population size.
    pub tenants: u32,
    /// Population weights across QoS classes.
    pub class_mix: ClassMix,
    /// The open-loop arrival process.
    pub arrivals: ArrivalProcess,
    /// Kernel pool requests draw from.
    pub kernels: Vec<Kernel>,
    /// Workload scale factor for every kernel.
    pub scale: f64,
    /// Agents (worker lanes) per kernel run — the analytic model's
    /// parallelism knob.
    pub agents: usize,
    /// Master seed: arrivals, tenant population and partition hashes
    /// all derive from it.
    pub seed: u64,
    /// Offered requests; 0 means unbounded (then `duration_ms` must
    /// bound the run).
    pub requests: u64,
    /// Simulated serving horizon in milliseconds; 0 means unbounded
    /// (then `requests` must bound the run). Arrivals past the horizon
    /// are not offered.
    pub duration_ms: u64,
    /// QoS-aware admission limit: the slot backlog (in milliseconds)
    /// beyond which best-effort traffic is rejected and
    /// throughput-class traffic is counted degraded.
    pub admit_ms: f64,
    /// Accumulated writes (KiB) per accelerator that trigger one
    /// erase-blocking window on PRAM-bearing media; 0 disables the
    /// write wall.
    pub erase_every_kb: u64,
}

util::json_struct!(FleetSpec {
    name,
    system,
    accelerators,
    slots_per_accel,
    balancer,
    tenants,
    class_mix,
    arrivals,
    kernels,
    scale,
    agents,
    seed,
    requests,
    duration_ms,
    admit_ms,
    erase_every_kb
});

impl FleetSpec {
    /// A small, fully-populated example cell — the CLI's
    /// `serve --template` output and the documentation starting point.
    pub fn example() -> FleetSpec {
        FleetSpec {
            name: Some("example-cell".to_string()),
            system: crate::config::SystemKind::DramLess.spec(),
            accelerators: 4,
            slots_per_accel: 2,
            balancer: BalancerKind::QosAware,
            tenants: 64,
            class_mix: ClassMix::default(),
            arrivals: ArrivalProcess::Bursty {
                base_per_s: 300.0,
                burst_per_s: 3_000.0,
                mean_burst_ms: 20.0,
                mean_calm_ms: 80.0,
            },
            kernels: vec![Kernel::Trisolv, Kernel::Durbin, Kernel::Jaco1d],
            scale: 0.1,
            agents: 2,
            seed: 42,
            requests: 2_000,
            duration_ms: 0,
            admit_ms: 30.0,
            erase_every_kb: 512,
        }
    }

    /// The cell's display name.
    pub fn display_name(&self) -> &str {
        self.name
            .as_deref()
            .unwrap_or_else(|| self.balancer.label())
    }

    /// Whether the composed medium carries PRAM (and therefore sees
    /// erase-blocking windows).
    pub fn pram_bearing(&self) -> bool {
        matches!(
            self.system.medium,
            Medium::Pram3x | Medium::PramSsd | Medium::NorPram
        )
    }

    /// The pricing parameters for the per-kernel analytic runs.
    pub fn params(&self) -> SystemParams {
        SystemParams {
            agents: self.agents,
            seed: self.seed,
            ..SystemParams::default()
        }
    }

    /// The tenant population this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the population, mix or kernel pool is
    /// invalid.
    pub fn tenant_model(&self) -> Result<TenantModel, SpecError> {
        TenantModel::new(self.seed, self.tenants, &self.class_mix, &self.kernels)
    }

    /// Validates the fleet shape (the system composition is validated
    /// separately when the analytic model is built).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] describing the first offending knob.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.accelerators == 0 {
            return Err(SpecError::fleet("fleet needs at least one accelerator"));
        }
        if self.slots_per_accel == 0 {
            return Err(SpecError::fleet("slots_per_accel must be >= 1"));
        }
        let slots = self.accelerators.checked_mul(self.slots_per_accel);
        if slots.is_none_or(|n| n > MAX_FLEET_SLOTS) {
            return Err(SpecError::fleet(format!(
                "accelerators x slots_per_accel ({} x {}) exceeds {MAX_FLEET_SLOTS} slots",
                self.accelerators, self.slots_per_accel
            )));
        }
        if !(1..=MAX_AGENTS).contains(&self.agents) {
            return Err(SpecError::fleet(format!(
                "agents must be in 1..={MAX_AGENTS} (8 PEs, one serves), got {}",
                self.agents
            )));
        }
        Scale(self.scale)
            .validate()
            .map_err(|e| SpecError::fleet(e.to_string()))?;
        if self.requests == 0 && self.duration_ms == 0 {
            return Err(SpecError::fleet(
                "either requests or duration_ms must bound the run",
            ));
        }
        self.horizon_ps()?;
        self.erase_every_bytes()?;
        if !self.admit_ms.is_finite() || self.admit_ms < 0.0 {
            return Err(SpecError::fleet(format!(
                "admit_ms must be finite and >= 0, got {}",
                self.admit_ms
            )));
        }
        if self.balancer == BalancerKind::QosAware && self.admit_ms == 0.0 {
            return Err(SpecError::fleet(
                "the qos-aware balancer needs admit_ms > 0 (a zero limit \
                 rejects every queued best-effort request)",
            ));
        }
        if self.system.faults.is_some() {
            return Err(SpecError::fleet(
                "fleet serving prices requests analytically and does not \
                 model fault injection; drop the faults knob",
            ));
        }
        self.arrivals.validate()?;
        self.tenant_model().map(|_| ())
    }

    /// The serving horizon in picoseconds; 0 means unbounded.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when `duration_ms` puts the horizon past
    /// the [`Picos::CEILING`] every clock is held to (about 53 days).
    fn horizon_ps(&self) -> Result<u64, SpecError> {
        self.duration_ms
            .checked_mul(1_000_000_000)
            .filter(|&ps| ps <= Picos::CEILING.as_ps())
            .ok_or_else(|| {
                SpecError::fleet(format!(
                    "duration_ms {} puts the horizon past the 2^62 ps clock ceiling",
                    self.duration_ms
                ))
            })
    }

    /// Bytes written per accelerator between erase-blocking windows; 0
    /// when the medium carries no PRAM or the write wall is disabled.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when `erase_every_kb` overflows a `u64` of
    /// bytes.
    fn erase_every_bytes(&self) -> Result<u64, SpecError> {
        let bytes = self.erase_every_kb.checked_mul(1024).ok_or_else(|| {
            SpecError::fleet(format!(
                "erase_every_kb {} overflows a byte count",
                self.erase_every_kb
            ))
        })?;
        Ok(if self.pram_bearing() { bytes } else { 0 })
    }

    /// The partition (within its accelerator) tenant `tenant`'s working
    /// set hashes to.
    pub fn partition_of(&self, tenant: u32) -> usize {
        (stream_seed(self.seed, &[STREAM_PART, u64::from(tenant)]) % PARTITIONS as u64) as usize
    }
}

/// The analytic price of one kernel from the pool: service time per
/// request and the write volume it contributes to the erase wall.
#[derive(Debug, Clone, Copy, Default)]
struct KernelPrice {
    service_ps: u64,
    write_bytes: u64,
}

/// Prices every kernel in the pool, fanned out over `pool`, into a
/// table indexed by `Kernel as usize`. Kernels outside the pool stay
/// unpriced: no request draws them.
fn price_kernels(
    pool: &Pool,
    spec: &FleetSpec,
) -> Result<[KernelPrice; Kernel::ALL.len()], SpecError> {
    let params = spec.params();
    let cfg = AccelConfig {
        pes: params.agents + 1,
        sample_bucket: Picos::from_us(params.sample_bucket_us),
        ..Default::default()
    };
    let mut prices = [KernelPrice::default(); Kernel::ALL.len()];
    for priced in pool.map(&spec.kernels, |&kernel| {
        let built = Workload::of(kernel, Scale(spec.scale)).build(params.agents);
        let exec = ExecModel::for_spec(&spec.system, &built, &params)?.exec(&cfg);
        Ok((
            kernel,
            KernelPrice {
                service_ps: exec.total_time.as_ps().max(1),
                write_bytes: exec.bytes_to_mem,
            },
        ))
    }) {
        let (kernel, price) = priced?;
        prices[kernel as usize] = price;
    }
    Ok(prices)
}

/// Live state of one simulated accelerator during the serving loop.
struct AccelState {
    /// Per-slot completion times.
    slots: Vec<u64>,
    /// Per-partition completion times.
    partitions: [u64; PARTITIONS],
    /// Write bytes that open an erase window; 0 disables the wall.
    erase_every_bytes: u64,
    /// Length of one erase window.
    erase_window_ps: u64,
    /// Write bytes accumulated since the last erase window.
    bytes_since_erase: u64,
    stats: AccelStats,
}

impl AccelState {
    fn new(slots: usize, erase_every_bytes: u64, erase_window_ps: u64) -> AccelState {
        AccelState {
            slots: vec![0; slots],
            partitions: [0; PARTITIONS],
            erase_every_bytes,
            erase_window_ps,
            bytes_since_erase: 0,
            stats: AccelStats::default(),
        }
    }

    /// The wait a request arriving `now` would see for a slot.
    fn backlog_ps(&self, now: u64) -> u64 {
        self.slots
            .iter()
            .map(|&free| free.saturating_sub(now))
            .min()
            .expect("at least one slot")
    }

    /// The index of the earliest-free slot (ties break low).
    fn best_slot(&self) -> usize {
        let mut best = 0;
        for (i, &free) in self.slots.iter().enumerate() {
            if free < self.slots[best] {
                best = i;
            }
        }
        best
    }

    /// Serves a request arriving `at` whose working set lives in
    /// `partition`: slot queueing, partition contention, the erase
    /// wall, then the calibrated service time. Returns the request's
    /// span, whose cursor is its completion time.
    fn serve(&mut self, at: Picos, partition: usize, price: KernelPrice) -> AttrSpan {
        let now = at.as_ps();
        let slot = self.best_slot();
        let start_slot = now.max(self.slots[slot]);
        let start_exec = start_slot.max(self.partitions[partition]);
        let erase_block = if self.erase_every_bytes > 0 {
            self.bytes_since_erase += price.write_bytes;
            if self.bytes_since_erase >= self.erase_every_bytes {
                self.bytes_since_erase -= self.erase_every_bytes;
                self.stats.erase_windows += 1;
                self.erase_window_ps
            } else {
                0
            }
        } else {
            0
        };
        let finish = start_exec + erase_block + price.service_ps;
        self.slots[slot] = finish;
        self.partitions[partition] = finish;
        self.stats.requests += 1;
        self.stats.busy_ps += erase_block + price.service_ps;
        self.stats.queue_wait_ps += start_slot - now;
        self.stats.partition_wait_ps += start_exec - start_slot;
        self.stats.erase_blocked_ps += erase_block;

        // Bucket the monotone cursor: conserving by construction.
        let mut span = AttrSpan::new(at);
        span.advance(Cause::QueueWait, Picos::from_ps(start_slot));
        span.advance(Cause::PartitionConflict, Picos::from_ps(start_exec));
        span.advance(
            Cause::EraseBlocked,
            Picos::from_ps(start_exec + erase_block),
        );
        span.advance(Cause::ArrayAccess, Picos::from_ps(finish));
        span
    }
}

/// Per-accelerator serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccelStats {
    /// Requests served (admitted) on this accelerator.
    pub requests: u64,
    /// Busy time: service plus erase windows.
    pub busy_ps: u64,
    /// Total slot-queue wait its requests saw.
    pub queue_wait_ps: u64,
    /// Total partition-conflict wait its requests saw.
    pub partition_wait_ps: u64,
    /// Erase-blocking windows triggered.
    pub erase_windows: u64,
    /// Total time requests spent blocked behind erase windows.
    pub erase_blocked_ps: u64,
}

util::json_struct!(AccelStats {
    requests,
    busy_ps,
    queue_wait_ps,
    partition_wait_ps,
    erase_windows,
    erase_blocked_ps
});

/// Serving totals for one QoS class.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassStats {
    /// Requests offered by tenants of this class.
    pub offered: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests served but past the admission limit.
    pub degraded: u64,
    /// Completed-request latency distribution.
    pub latency: LatencyHistogram,
}

impl ClassStats {
    /// Counts one offered request: `None` when admission control
    /// rejected it, else its latency and whether it was served degraded.
    fn tally(&mut self, served: Option<(u64, bool)>) {
        self.offered += 1;
        match served {
            None => self.rejected += 1,
            Some((latency_ps, degraded)) => {
                self.completed += 1;
                self.degraded += u64::from(degraded);
                self.latency.record_ps(latency_ps);
            }
        }
    }
}

/// A tenant's row in the serving loop: its class, the partition its
/// working set hashes to (computed once, when its first request
/// arrives) and its running totals.
struct TenantRow {
    class: QosClass,
    partition: usize,
    stats: ClassStats,
}

/// Serving totals for one tenant (same shape as [`ClassStats`] plus
/// identity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant id.
    pub tenant: u32,
    /// The tenant's QoS class.
    pub class: QosClass,
    /// Requests the tenant offered.
    pub offered: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests served degraded.
    pub degraded: u64,
    /// Completed-request latency distribution.
    pub latency: LatencyHistogram,
}

/// Serializes one class/tenant stats row: counts, derived quantiles
/// (p50/p99/p99.9 — re-derived on parse, so round trips stay
/// byte-stable) and the full histogram.
fn stats_row(
    head: Vec<(String, Json)>,
    offered: u64,
    completed: u64,
    rejected: u64,
    degraded: u64,
    latency: &LatencyHistogram,
) -> Json {
    let mut fields = head;
    fields.extend([
        ("offered".to_string(), Json::U64(offered)),
        ("completed".to_string(), Json::U64(completed)),
        ("rejected".to_string(), Json::U64(rejected)),
        ("degraded".to_string(), Json::U64(degraded)),
        ("p50_ns".to_string(), Json::U64(latency.quantile_ns(0.50))),
        ("p99_ns".to_string(), Json::U64(latency.quantile_ns(0.99))),
        ("p999_ns".to_string(), Json::U64(latency.quantile_ns(0.999))),
        ("latency".to_string(), latency.to_json()),
    ]);
    Json::Obj(fields)
}

/// The serialized outcome of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The cell's display name.
    pub name: String,
    /// The dispatch policy that ran.
    pub balancer: BalancerKind,
    /// Accelerators in the cell.
    pub accelerators: usize,
    /// Tenant population size.
    pub tenants: u32,
    /// Requests offered by the arrival process.
    pub offered: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests served degraded.
    pub degraded: u64,
    /// Simulated time of the last completion.
    pub makespan_ps: u64,
    /// Fleet-wide completed-request latency distribution.
    pub aggregate: LatencyHistogram,
    /// Per-class totals, in [`QosClass::ALL`] order (always all three).
    pub classes: Vec<(QosClass, ClassStats)>,
    /// Per-tenant totals, ascending tenant id, tenants that offered
    /// traffic only.
    pub per_tenant: Vec<TenantStats>,
    /// Per-accelerator counters, in accelerator order.
    pub accels: Vec<AccelStats>,
    /// The PR 9 attribution summary over every completed request:
    /// conservation ledger, cause totals, tenant-tagged tail forensics
    /// and the sim-time window series.
    pub attr: AttrSummary,
}

impl FleetReport {
    /// The conservation invariant of a fleet report: class and tenant
    /// breakdowns each partition the fleet aggregate — counts and
    /// histograms both — and the attribution ledger covers exactly the
    /// completed requests. Returns the first discrepancy.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.offered != self.completed + self.rejected {
            return Err(format!(
                "offered {} != completed {} + rejected {}",
                self.offered, self.completed, self.rejected
            ));
        }
        if self.aggregate.count() != self.completed {
            return Err(format!(
                "aggregate histogram holds {} requests, completed {}",
                self.aggregate.count(),
                self.completed
            ));
        }
        let mut class_merge = LatencyHistogram::new();
        for (class, c) in &self.classes {
            if c.offered != c.completed + c.rejected {
                return Err(format!(
                    "class {}: offered != completed + rejected",
                    class.key()
                ));
            }
            if c.latency.count() != c.completed {
                return Err(format!("class {}: histogram vs completed", class.key()));
            }
            class_merge.merge(&c.latency);
        }
        if class_merge != self.aggregate {
            return Err("class histograms do not merge to the aggregate".to_string());
        }
        let mut tenant_merge = LatencyHistogram::new();
        let mut offered = 0;
        for t in &self.per_tenant {
            if t.offered != t.completed + t.rejected {
                return Err(format!(
                    "tenant {}: offered != completed + rejected",
                    t.tenant
                ));
            }
            if t.latency.count() != t.completed {
                return Err(format!("tenant {}: histogram vs completed", t.tenant));
            }
            offered += t.offered;
            tenant_merge.merge(&t.latency);
        }
        if offered != self.offered {
            return Err(format!(
                "tenant offered sum {offered} != fleet offered {}",
                self.offered
            ));
        }
        if tenant_merge != self.aggregate {
            return Err("tenant histograms do not merge to the aggregate".to_string());
        }
        let accel_requests: u64 = self.accels.iter().map(|a| a.requests).sum();
        if accel_requests != self.completed {
            return Err(format!(
                "accelerator request sum {accel_requests} != completed {}",
                self.completed
            ));
        }
        if self.attr.records != self.completed {
            return Err(format!(
                "attribution records {} != completed {}",
                self.attr.records, self.completed
            ));
        }
        if !self.attr.conserves() {
            return Err(format!(
                "attribution does not conserve: {} violations, {} ps attributed vs {} ps wall",
                self.attr.violations, self.attr.attributed_ps, self.attr.wall_ps
            ));
        }
        Ok(())
    }

    /// Whether [`check_conservation`](Self::check_conservation) passes.
    pub fn conserves(&self) -> bool {
        self.check_conservation().is_ok()
    }

    /// Offered requests per simulated second.
    pub fn offered_rate_per_s(&self) -> f64 {
        if self.makespan_ps == 0 {
            return 0.0;
        }
        self.offered as f64 / (Picos::from_ps(self.makespan_ps).as_secs_f64())
    }

    /// The single worst request of the run (the head of the attribution
    /// `top` table); `None` only when nothing completed. Fleet entries
    /// always carry their owning tenant, so this is the starting point
    /// for tail forensics.
    pub fn top_request(&self) -> Option<&TopRequest> {
        self.attr.top.first()
    }

    /// The stats row of `class` (always present).
    pub fn class(&self, class: QosClass) -> &ClassStats {
        &self
            .classes
            .iter()
            .find(|(c, _)| *c == class)
            .expect("all classes present")
            .1
    }
}

impl ToJson for FleetReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("balancer".to_string(), self.balancer.to_json()),
            (
                "accelerators".to_string(),
                Json::U64(self.accelerators as u64),
            ),
            ("tenants".to_string(), Json::U64(u64::from(self.tenants))),
            ("offered".to_string(), Json::U64(self.offered)),
            ("completed".to_string(), Json::U64(self.completed)),
            ("rejected".to_string(), Json::U64(self.rejected)),
            ("degraded".to_string(), Json::U64(self.degraded)),
            ("makespan_ps".to_string(), Json::U64(self.makespan_ps)),
            ("aggregate".to_string(), self.aggregate.to_json()),
            (
                "classes".to_string(),
                Json::Arr(
                    self.classes
                        .iter()
                        .map(|(class, c)| {
                            stats_row(
                                vec![("class".to_string(), Json::Str(class.key().to_string()))],
                                c.offered,
                                c.completed,
                                c.rejected,
                                c.degraded,
                                &c.latency,
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "per_tenant".to_string(),
                Json::Arr(
                    self.per_tenant
                        .iter()
                        .map(|t| {
                            stats_row(
                                vec![
                                    ("tenant".to_string(), Json::U64(u64::from(t.tenant))),
                                    ("class".to_string(), Json::Str(t.class.key().to_string())),
                                ],
                                t.offered,
                                t.completed,
                                t.rejected,
                                t.degraded,
                                &t.latency,
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "accels".to_string(),
                Json::Arr(self.accels.iter().map(ToJson::to_json).collect()),
            ),
            ("latency_attribution".to_string(), self.attr.to_json()),
        ])
    }
}

impl FromJson for FleetReport {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let class_of = |o: &Json| -> Result<QosClass, JsonError> {
            let key = o
                .get("class")
                .and_then(Json::as_str)
                .ok_or_else(|| JsonError::new("stats row missing class"))?;
            QosClass::from_key(key)
                .ok_or_else(|| JsonError::new(format!("unknown QoS class `{key}`")))
        };
        let classes = v
            .get("classes")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError::new("fleet report missing classes"))?
            .iter()
            .map(|o| {
                Ok((
                    class_of(o)?,
                    ClassStats {
                        offered: field(o, "offered")?,
                        completed: field(o, "completed")?,
                        rejected: field(o, "rejected")?,
                        degraded: field(o, "degraded")?,
                        latency: field(o, "latency")?,
                    },
                ))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let per_tenant = v
            .get("per_tenant")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError::new("fleet report missing per_tenant"))?
            .iter()
            .map(|o| {
                Ok(TenantStats {
                    tenant: field(o, "tenant")?,
                    class: class_of(o)?,
                    offered: field(o, "offered")?,
                    completed: field(o, "completed")?,
                    rejected: field(o, "rejected")?,
                    degraded: field(o, "degraded")?,
                    latency: field(o, "latency")?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(FleetReport {
            name: field(v, "name")?,
            balancer: field(v, "balancer")?,
            accelerators: field::<u64>(v, "accelerators")? as usize,
            tenants: field(v, "tenants")?,
            offered: field(v, "offered")?,
            completed: field(v, "completed")?,
            rejected: field(v, "rejected")?,
            degraded: field(v, "degraded")?,
            makespan_ps: field(v, "makespan_ps")?,
            aggregate: field(v, "aggregate")?,
            classes,
            per_tenant,
            accels: field(v, "accels")?,
            attr: field(v, "latency_attribution")?,
        })
    }
}

/// Runs the fleet described by `spec` on the global worker pool.
///
/// # Errors
///
/// Returns [`SpecError`] when the spec is invalid or the system
/// composition has no calibration entry.
pub fn run_fleet(spec: &FleetSpec) -> Result<FleetReport, SpecError> {
    run_fleet_on(pool::global(), spec)
}

/// Runs the fleet described by `spec` on an explicit worker pool.
///
/// The pool prices the cell's kernels up front. The serving loop is one
/// serial pass over a single ordered timeline that tallies as it serves:
/// class and tenant rows, the aggregate histogram and the attribution
/// collector are all integer sums, so the report is byte-identical at
/// any pool width.
///
/// # Errors
///
/// Returns [`SpecError`] when the spec is invalid or the system
/// composition has no calibration entry.
pub fn run_fleet_on(pool: &Pool, spec: &FleetSpec) -> Result<FleetReport, SpecError> {
    spec.validate()?;
    let prices = price_kernels(pool, spec)?;
    let model = spec.tenant_model()?;
    let mut arrivals = ArrivalGen::new(spec.arrivals, spec.seed)?;
    let erase_every_bytes = spec.erase_every_bytes()?;
    let erase_window_ps = pram::PramTiming::default().t_erase.as_ps();
    let admit_ps = (spec.admit_ms * 1e9).round() as u64;
    let horizon_ps = spec.horizon_ps()?;

    let mut accels: Vec<AccelState> = (0..spec.accelerators)
        .map(|_| AccelState::new(spec.slots_per_accel, erase_every_bytes, erase_window_ps))
        .collect();
    let mut tenants: FxHashMap<u32, TenantRow> = FxHashMap::default();
    let mut classes = vec![ClassStats::default(); NUM_CLASSES];
    let mut aggregate = LatencyHistogram::new();
    let mut attr = AttrCollector::default();
    let mut makespan_ps = 0u64;
    let mut seq = 0u64;
    loop {
        if spec.requests > 0 && seq >= spec.requests {
            break;
        }
        let at = arrivals.next_arrival();
        if horizon_ps > 0 && at.as_ps() > horizon_ps {
            break;
        }
        if at > Picos::CEILING {
            return Err(SpecError::fleet(format!(
                "the arrival clock passes the 2^62 ps ceiling at request {seq}; \
                 raise the arrival rate"
            )));
        }
        let req = model.request(seq, at);
        seq += 1;
        let now = at.as_ps();
        let tenant = tenants.entry(req.tenant).or_insert_with(|| TenantRow {
            class: req.class,
            partition: spec.partition_of(req.tenant),
            stats: ClassStats::default(),
        });

        // Dispatch.
        let (backlog, target) = match spec.balancer {
            BalancerKind::RoundRobin => {
                let i = (req.seq % accels.len() as u64) as usize;
                (accels[i].backlog_ps(now), i)
            }
            BalancerKind::LeastLoaded | BalancerKind::QosAware => accels
                .iter()
                .enumerate()
                .map(|(i, a)| (a.backlog_ps(now), i))
                .min()
                .expect("at least one accelerator"),
        };
        let over_limit = spec.balancer == BalancerKind::QosAware && backlog > admit_ps;
        let served = if over_limit && req.class == QosClass::BestEffort {
            None
        } else {
            let span = accels[target].serve(at, tenant.partition, prices[req.kernel as usize]);
            makespan_ps = makespan_ps.max(span.cursor().as_ps());
            let rec = AttrRecord {
                tenant: Some(req.tenant),
                ..span.record(AttrScope::Exec, req.seq, "fleet.request")
            };
            attr.record(rec);
            aggregate.record_ps(rec.dur_ps);
            Some((rec.dur_ps, over_limit && req.class == QosClass::Throughput))
        };
        classes[req.class as usize].tally(served);
        tenant.stats.tally(served);
    }

    let mut per_tenant: Vec<TenantStats> = tenants
        .into_iter()
        .map(|(tenant, row)| TenantStats {
            tenant,
            class: row.class,
            offered: row.stats.offered,
            completed: row.stats.completed,
            rejected: row.stats.rejected,
            degraded: row.stats.degraded,
            latency: row.stats.latency,
        })
        .collect();
    per_tenant.sort_unstable_by_key(|t| t.tenant);
    let completed: u64 = classes.iter().map(|c| c.completed).sum();
    let rejected: u64 = classes.iter().map(|c| c.rejected).sum();
    let degraded: u64 = classes.iter().map(|c| c.degraded).sum();
    Ok(FleetReport {
        name: spec.display_name().to_string(),
        balancer: spec.balancer,
        accelerators: spec.accelerators,
        tenants: spec.tenants,
        offered: seq,
        completed,
        rejected,
        degraded,
        makespan_ps,
        aggregate,
        classes: QosClass::ALL.into_iter().zip(classes).collect(),
        per_tenant,
        accels: accels.into_iter().map(|a| a.stats).collect(),
        attr: attr.summarize(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> FleetSpec {
        FleetSpec {
            tenants: 16,
            requests: 400,
            accelerators: 2,
            kernels: vec![Kernel::Trisolv, Kernel::Durbin],
            ..FleetSpec::example()
        }
    }

    #[test]
    fn fleet_spec_round_trips_through_json() {
        let spec = FleetSpec::example();
        let text = spec.to_json_pretty();
        let back = FleetSpec::from_json_str(&text).expect("spec parses");
        assert_eq!(back, spec);
        assert_eq!(back.to_json_pretty(), text);
    }

    #[test]
    fn invalid_fleet_shapes_are_rejected() {
        let cases: Vec<(&str, FleetSpec)> = vec![
            (
                "no accelerators",
                FleetSpec {
                    accelerators: 0,
                    ..tiny_spec()
                },
            ),
            (
                "no slots",
                FleetSpec {
                    slots_per_accel: 0,
                    ..tiny_spec()
                },
            ),
            (
                "scale too large to build",
                FleetSpec {
                    scale: 1e300,
                    ..tiny_spec()
                },
            ),
            (
                "unbounded",
                FleetSpec {
                    requests: 0,
                    duration_ms: 0,
                    ..tiny_spec()
                },
            ),
            (
                "qos-aware without limit",
                FleetSpec {
                    balancer: BalancerKind::QosAware,
                    admit_ms: 0.0,
                    ..tiny_spec()
                },
            ),
            (
                "horizon overflows the picosecond clock",
                FleetSpec {
                    requests: 0,
                    duration_ms: 18_446_744_074,
                    ..tiny_spec()
                },
            ),
            (
                "erase budget overflows a byte count",
                FleetSpec {
                    erase_every_kb: (1 << 54) + 1,
                    ..tiny_spec()
                },
            ),
            (
                "more slots than the dispatcher scans",
                FleetSpec {
                    slots_per_accel: 1_000_000_000_000,
                    ..tiny_spec()
                },
            ),
            (
                "faults armed",
                FleetSpec {
                    system: SystemSpec {
                        faults: Some(sim_core::fault::FaultPlan::seeded(1)),
                        ..tiny_spec().system
                    },
                    ..tiny_spec()
                },
            ),
        ];
        for (what, spec) in cases {
            let err = spec.validate().expect_err(what).to_string();
            assert!(err.starts_with("invalid fleet spec: "), "{what}: {err}");
        }
        // A fault in the embedded system keeps the system's prefix: TLC
        // flash behind P2P DMA has no analytic calibration entry.
        let uncalibrated = FleetSpec {
            system: SystemSpec {
                medium: Medium::FlashSsd {
                    cell: flash::CellKind::Tlc,
                },
                ..crate::SystemKind::Heterodirect.spec()
            },
            ..tiny_spec()
        };
        let err = run_fleet(&uncalibrated).unwrap_err().to_string();
        assert!(err.starts_with("invalid system spec: "), "{err}");
    }

    #[test]
    fn a_small_cell_serves_and_conserves() {
        let report = run_fleet(&tiny_spec()).expect("cell serves");
        assert_eq!(report.offered, 400);
        assert!(report.completed > 0);
        report.check_conservation().expect("fleet report conserves");
        // Attribution carries tenant tags on fleet runs.
        assert!(report.attr.top.iter().all(|t| t.tenant.is_some()));
        assert!(report.attr.top.iter().all(|t| t.source == "fleet.request"));
    }

    #[test]
    fn an_arrival_clock_past_the_ceiling_is_a_typed_error() {
        // The first inter-arrival time of a 1e-300/s process is far past
        // 2^62 ps: the clock saturates instead of wrapping, and the run
        // refuses the arrival, naming the clock. A rate of 1/s stays
        // under the ceiling and serves.
        for process in [
            ArrivalProcess::Poisson { rate_per_s: 1e-300 },
            ArrivalProcess::Bursty {
                base_per_s: 1e-300,
                burst_per_s: 1e-300,
                mean_burst_ms: 1.0,
                mean_calm_ms: 1e300,
            },
            ArrivalProcess::Diurnal {
                mean_per_s: 1e-300,
                swing: 0.5,
                period_ms: 1.0,
            },
        ] {
            let spec = FleetSpec {
                arrivals: process,
                requests: 10,
                ..tiny_spec()
            };
            let err = run_fleet(&spec)
                .expect_err("arrivals past 2^62 ps")
                .to_string();
            assert!(
                err.starts_with("invalid fleet spec: the arrival clock passes the 2^62 ps ceiling"),
                "{}: {err}",
                process.label()
            );
        }
        let slow = FleetSpec {
            arrivals: ArrivalProcess::Poisson { rate_per_s: 1.0 },
            requests: 10,
            ..tiny_spec()
        };
        assert_eq!(run_fleet(&slow).expect("serves").offered, 10);
    }

    #[test]
    fn balancers_disagree_but_offer_identical_traffic() {
        let mut reports = Vec::new();
        for balancer in BalancerKind::ALL {
            let report = run_fleet(&FleetSpec {
                balancer,
                ..tiny_spec()
            })
            .expect("cell serves");
            report.check_conservation().expect("conserves");
            reports.push(report);
        }
        // Same seed, same arrivals: offered traffic is identical.
        assert!(reports.windows(2).all(|w| w[0].offered == w[1].offered));
        // Only the QoS-aware balancer may reject, and only best-effort.
        assert_eq!(reports[0].rejected, 0, "round-robin never rejects");
        assert_eq!(reports[1].rejected, 0, "least-loaded never rejects");
        for (class, c) in &reports[2].classes {
            if *class != QosClass::BestEffort {
                assert_eq!(c.rejected, 0, "{} must never be rejected", class.key());
            }
            if *class != QosClass::Throughput {
                assert_eq!(c.degraded, 0, "{} must never be degraded", class.key());
            }
        }
    }

    #[test]
    fn report_round_trips_byte_stable() {
        let report = run_fleet(&tiny_spec()).expect("cell serves");
        let text = report.to_json_pretty();
        let back = FleetReport::from_json_str(&text).expect("report parses");
        assert_eq!(back, report);
        assert_eq!(back.to_json_pretty(), text);
    }

    #[test]
    fn the_write_wall_surfaces_in_the_tail() {
        // A one-slot cell under bursty load with a tight erase budget:
        // erase windows must fire and dominate the worst requests.
        let spec = FleetSpec {
            accelerators: 1,
            slots_per_accel: 1,
            balancer: BalancerKind::RoundRobin,
            erase_every_kb: 64,
            requests: 800,
            ..tiny_spec()
        };
        let report = run_fleet(&spec).expect("cell serves");
        report.check_conservation().expect("conserves");
        let windows: u64 = report.accels.iter().map(|a| a.erase_windows).sum();
        assert!(windows > 0, "the erase wall never fired");
        let worst = &report.attr.top[0];
        assert!(
            worst.causes[Cause::EraseBlocked as usize] > 0,
            "worst request not erase-blocked: {worst:?}"
        );
        // p99.9 reflects the 60 ms window; p50 does not.
        let agg = &report.aggregate;
        assert!(agg.quantile_ns(0.999) >= 60_000_000);
        assert!(agg.quantile_ns(0.50) < agg.quantile_ns(0.999));

        // Disabling the wall removes the cliff under identical traffic.
        let calm = run_fleet(&FleetSpec {
            erase_every_kb: 0,
            ..spec
        })
        .expect("cell serves");
        assert_eq!(calm.offered, report.offered);
        assert!(calm.aggregate.quantile_ns(0.999) < agg.quantile_ns(0.999));
    }

    #[test]
    fn dram_media_never_sees_erase_windows() {
        let spec = FleetSpec {
            system: crate::config::SystemKind::Ideal.spec(),
            erase_every_kb: 64,
            ..tiny_spec()
        };
        assert!(!spec.pram_bearing());
        let report = run_fleet(&spec).expect("cell serves");
        assert!(report.accels.iter().all(|a| a.erase_windows == 0));
    }
}
