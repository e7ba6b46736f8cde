//! Integration tests for the workload suite: functional correctness of
//! every kernel plus trace/accelerator interoperation.

use accel::exec::{AccelConfig, Accelerator, ExecReport};
use accel::sched::{MemSchedule, ReplayEvent, ReplayStep};
use accel::Trace;
use sim_core::energy::EnergyBook;
use sim_core::mem::{Access, MemoryBackend};
use sim_core::Picos;
use workloads::{Kernel, Scale, Workload};

/// A fixed-latency memory for engine-level checks.
struct FlatMem(Picos);

impl MemoryBackend for FlatMem {
    fn read(&mut self, at: Picos, _a: u64, _l: u32) -> Access {
        Access {
            start: at,
            end: at + self.0,
        }
    }
    fn write(&mut self, at: Picos, _a: u64, _l: u32) -> Access {
        Access {
            start: at,
            end: at + self.0,
        }
    }
    fn energy(&self) -> EnergyBook {
        EnergyBook::new()
    }
    fn label(&self) -> &'static str {
        "flat"
    }
}

/// Runs `traces` from time zero through the engine every cell uses:
/// build the memory schedule, replay it.
fn run(accel: &Accelerator, traces: &[Trace], mem: &mut FlatMem) -> ExecReport {
    let sched = MemSchedule::build(traces, accel.config().l1, accel.config().l2);
    accel.run_schedule_at(Picos::ZERO, &sched, mem)
}

#[test]
fn every_kernel_is_deterministic_and_finite() {
    for w in Workload::suite(Scale::small()) {
        let a = w.reference();
        let b = w.reference();
        assert_eq!(a.checksum, b.checksum, "{}", w.kernel);
        assert!(a.final_values.iter().all(|v| v.is_finite()), "{}", w.kernel);
        assert!(a.footprint > 0 && a.bytes_in > 0 && a.bytes_out > 0);
    }
}

#[test]
fn instrumentation_never_changes_results() {
    for w in Workload::suite(Scale::small()) {
        let reference = w.reference();
        let built = w.build(5);
        assert_eq!(
            reference.checksum, built.run.checksum,
            "{}: traced run diverged from reference",
            w.kernel
        );
    }
}

#[test]
fn every_trace_replays_on_the_accelerator() {
    let accel = Accelerator::new(AccelConfig::default());
    for w in Workload::suite(Scale(0.3)) {
        let built = w.build(accel.agents());
        let mut mem = FlatMem(Picos::from_ns(150));
        let report = run(&accel, &built.traces, &mut mem);
        assert_eq!(
            report.instructions, built.character.instructions,
            "{}",
            w.kernel
        );
        assert!(report.total_time > Picos::ZERO);
        assert!(report.l1.hits + report.l1.misses > 0);
    }
}

#[test]
fn suite_schedules_store_a_byte_per_step_and_no_hit_run_words() {
    // The schedule cache's footprint: a paper kernel's agent repeats a
    // handful of distinct steps, so each step costs one byte, and only
    // ops that issue a backend request keep event words — an op served
    // by one hit run carries its run in its step.
    let accel = Accelerator::new(AccelConfig::default());
    let cfg = accel.config();
    for w in Workload::suite(Scale(0.25)) {
        let built = w.build_cached(accel.agents());
        let sched = workloads::cache::schedule_for(&built, cfg.l1, cfg.l2);
        for (i, a) in sched.agents.iter().enumerate() {
            let at = format!("{} agent {i}", w.kernel);
            assert_eq!(a.bytes_per_step(), 1, "{at}");
            let mut stored = 0;
            for step in 0..a.step_count() {
                let ReplayStep::Mem { events, .. } = a.step(step) else {
                    continue;
                };
                let words = stored..stored + events as usize;
                assert!(
                    words
                        .clone()
                        .any(|e| !matches!(a.event(e), ReplayEvent::Hits { .. })),
                    "{at}: step {step} stores words but issues no request"
                );
                stored = words.end;
            }
            assert_eq!(stored, a.flush_start(), "{at}");
        }
    }
}

#[test]
fn slower_memory_never_speeds_a_kernel_up() {
    let accel = Accelerator::new(AccelConfig::default());
    for kernel in [Kernel::Gemver, Kernel::Seidel] {
        let built = Workload::of(kernel, Scale(0.3)).build(accel.agents());
        let mut fast = FlatMem(Picos::from_ns(100));
        let mut slow = FlatMem(Picos::from_us(10));
        let rf = run(&accel, &built.traces, &mut fast);
        let rs = run(&accel, &built.traces, &mut slow);
        assert!(rs.total_time > rf.total_time, "{kernel}");
        assert!(rs.total_ipc() < rf.total_ipc(), "{kernel}");
    }
}

#[test]
fn table3_characteristics_are_consistent() {
    for w in Workload::suite(Scale::small()) {
        let c = w.build(4).character;
        // Write ratio is consistent with raw counts.
        let expect = c.stores as f64 / (c.loads + c.stores) as f64;
        assert!((c.write_ratio - expect).abs() < 1e-12);
        // Staged volumes never exceed the working set.
        assert!(c.bytes_in <= c.footprint, "{}", w.kernel);
        assert!(c.bytes_out <= c.footprint, "{}", w.kernel);
    }
}

#[test]
fn read_intensive_kernels_have_low_write_ratios() {
    // The canonical Fig. 13 circles.
    let ratio = |k: Kernel| {
        Workload::of(k, Scale::small())
            .build(4)
            .character
            .write_ratio
    };
    for k in [Kernel::Trisolv, Kernel::Dynpro, Kernel::Gemver] {
        assert!(ratio(k) < 0.15, "{k} should be read-dominated");
    }
    for k in [Kernel::Jaco1d, Kernel::Lu, Kernel::Adi] {
        assert!(ratio(k) > 0.2, "{k} should be store-heavy");
    }
}

#[test]
fn agent_partitioning_covers_all_work() {
    // Splitting across more agents preserves total memory traffic.
    for agents in [1usize, 3, 7] {
        let built = Workload::of(Kernel::Jaco2d, Scale::small()).build(agents);
        let (l, s): (u64, u64) = built
            .traces
            .iter()
            .map(|t| {
                let p = t.memory_profile();
                (p.0, p.1)
            })
            .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
        let one = Workload::of(Kernel::Jaco2d, Scale::small()).build(1);
        let p1 = one.traces[0].memory_profile();
        assert_eq!((l, s), (p1.0, p1.1), "agents={agents}");
    }
}

#[test]
fn store_targets_feed_selective_erasing() {
    let built = Workload::of(Kernel::Floyd, Scale::small()).build(3);
    for t in &built.traces {
        let targets = t.store_targets(32);
        let (_, stores, _, _) = t.memory_profile();
        if stores > 0 {
            assert!(!targets.is_empty());
            assert!(targets.iter().all(|a| a % 32 == 0));
        }
    }
}
