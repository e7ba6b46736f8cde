//! Process-wide memoized trace cache.
//!
//! Building a workload is deterministic but not free: every trace op is
//! produced by actually running the kernel under a
//! [`TraceRecorder`](crate::recorder::TraceRecorder). The 15 bench
//! targets, the CLI and the sweep engine all want the same
//! `(kernel, size, agents)` builds, so [`Workload::build_cached`] hands
//! out shared [`Arc<BuiltWorkload>`]s and guarantees each distinct build
//! happens exactly once per process — even when several pool workers ask
//! for the same workload concurrently, only one of them runs the kernel
//! and the rest block on its [`OnceLock`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use accel::cache::CacheConfig;
use accel::sched::MemSchedule;

use crate::suite::{BuiltWorkload, Workload};

// Process-wide memoization counters. These are deliberately NOT part of
// any per-cell `MetricSet`: which caller populates a slot depends on
// thread scheduling, so folding them into cell reports would break the
// 1-thread-vs-N-thread byte-identity the sweep guarantees. They are
// global telemetry, snapshotted via [`stats`].
static WORKLOAD_HITS: AtomicU64 = AtomicU64::new(0);
static WORKLOAD_MISSES: AtomicU64 = AtomicU64::new(0);
static SCHEDULE_HITS: AtomicU64 = AtomicU64::new(0);
static SCHEDULE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide memoization counters.
///
/// A *miss* means the calling thread performed the build; a *hit* means
/// an already-populated (or concurrently populated) slot was shared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `build_cached` calls served from the cache.
    pub workload_hits: u64,
    /// `build_cached` calls that ran the kernel.
    pub workload_misses: u64,
    /// Schedule lookups served from the cache.
    pub schedule_hits: u64,
    /// Schedule lookups that replayed the cache walk.
    pub schedule_misses: u64,
}

/// Reads the current memoization counters.
pub fn stats() -> CacheStats {
    CacheStats {
        workload_hits: WORKLOAD_HITS.load(Ordering::Relaxed),
        workload_misses: WORKLOAD_MISSES.load(Ordering::Relaxed),
        schedule_hits: SCHEDULE_HITS.load(Ordering::Relaxed),
        schedule_misses: SCHEDULE_MISSES.load(Ordering::Relaxed),
    }
}

/// Everything that determines a build's output. `Scale` only influences
/// builds through the `n`/`steps` it picks, so the concrete dimensions
/// (not the scale factor) are the honest key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    kernel: crate::suite::Kernel,
    n: usize,
    steps: usize,
    agents: usize,
}

type Slot = Arc<OnceLock<Arc<BuiltWorkload>>>;

fn cache() -> &'static Mutex<HashMap<Key, Slot>> {
    static CACHE: OnceLock<Mutex<HashMap<Key, Slot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

impl Workload {
    /// Like [`Workload::build`], but memoized for the whole process.
    ///
    /// The first caller for a given `(kernel, n, steps, agents)` runs the
    /// kernel; everyone else (including concurrent callers racing with
    /// the first) gets the same `Arc` back. The map lock is only held
    /// long enough to find or insert the slot, so unrelated builds
    /// proceed in parallel.
    pub fn build_cached(&self, agents: usize) -> Arc<BuiltWorkload> {
        let key = Key {
            kernel: self.kernel,
            n: self.n,
            steps: self.steps,
            agents,
        };
        let slot = {
            let mut map = cache().lock().expect("workload cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        let mut built_here = false;
        let built = Arc::clone(slot.get_or_init(|| {
            built_here = true;
            Arc::new(self.build(agents))
        }));
        if built_here {
            WORKLOAD_MISSES.fetch_add(1, Ordering::Relaxed);
        } else {
            WORKLOAD_HITS.fetch_add(1, Ordering::Relaxed);
        }
        built
    }
}

/// A memory schedule is a pure function of `(trace contents, cache
/// geometry)`, so the cache is *content-addressed*: the key hashes what
/// the traces actually are, not which workload produced them. That keeps
/// lookups correct even for traces that were mutated after the build
/// (ablations scalarize or re-shard traces) — altered content simply
/// hashes to a different key and rebuilds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SchedKey {
    /// Combined content fingerprint of every trace, in agent order.
    traces: u64,
    agents: usize,
    l1: (u32, u32, u32),
    l2: (u32, u32, u32),
}

type SchedSlot = Arc<OnceLock<Arc<MemSchedule>>>;

fn sched_cache() -> &'static Mutex<HashMap<SchedKey, SchedSlot>> {
    static CACHE: OnceLock<Mutex<HashMap<SchedKey, SchedSlot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The content address of a built workload's traces: an FNV-1a
/// combination of the per-trace fingerprints in agent order
/// (byte-at-a-time mixing — the granularity these cache keys have
/// always used).
///
/// This is the same value [`schedule_for`] keys its memo table with;
/// the record/replay layer embeds it in every `RunFingerprint` so a
/// replay can prove it is re-deriving the *same* request stream before
/// comparing anything downstream.
pub fn traces_fingerprint(built: &BuiltWorkload) -> u64 {
    let mut fp = util::fingerprint::Fnv64::new();
    for t in &built.traces {
        fp.mix_bytes(&t.fingerprint().to_le_bytes());
    }
    fp.value()
}

/// The process-wide memoized [`MemSchedule`] for `built`'s traces under
/// `l1`/`l2` geometry: the exact backend request stream the accurate
/// engine produces, plus its packed replay program.
///
/// A schedule is backend-independent, so one build serves every system
/// preset of a sweep row that shares a buffer geometry — the 11-system
/// smoke sweep derives each workload's schedule once instead of eleven
/// times. First caller replays the cache walk; concurrent and later
/// callers share the `Arc`.
pub fn schedule_for(built: &BuiltWorkload, l1: CacheConfig, l2: CacheConfig) -> Arc<MemSchedule> {
    let traces_fp = traces_fingerprint(built);
    let key = SchedKey {
        traces: traces_fp,
        agents: built.traces.len(),
        l1: (l1.capacity, l1.line, l1.ways),
        l2: (l2.capacity, l2.line, l2.ways),
    };
    let slot = {
        let mut map = sched_cache().lock().expect("schedule cache poisoned");
        Arc::clone(map.entry(key).or_default())
    };
    let mut built_here = false;
    let sched = Arc::clone(slot.get_or_init(|| {
        built_here = true;
        Arc::new(MemSchedule::build(&built.traces, l1, l2))
    }));
    if built_here {
        SCHEDULE_MISSES.fetch_add(1, Ordering::Relaxed);
    } else {
        SCHEDULE_HITS.fetch_add(1, Ordering::Relaxed);
    }
    sched
}

impl Workload {
    /// The memoized [`MemSchedule`] of this workload's cached build —
    /// [`schedule_for`] over [`Workload::build_cached`].
    pub fn schedule_cached(
        &self,
        agents: usize,
        l1: CacheConfig,
        l2: CacheConfig,
    ) -> Arc<MemSchedule> {
        schedule_for(&self.build_cached(agents), l1, l2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{Kernel, Scale};

    #[test]
    fn cached_builds_are_shared() {
        // No other test builds this key, so the first call builds it.
        let w = Workload::of(Kernel::Trisolv, Scale(0.1));
        let before = stats();
        let a = w.build_cached(3);
        let b = w.build_cached(3);
        let after = stats();
        assert!(Arc::ptr_eq(&a, &b), "same key must share one build");
        // The counters are process-wide: other tests may add to them.
        assert!(after.workload_misses > before.workload_misses);
        assert!(after.workload_hits > before.workload_hits);
        // A different agent count is a different build.
        let c = w.build_cached(4);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.traces.len(), 4);
    }

    #[test]
    fn cached_build_matches_direct_build() {
        let w = Workload::of(Kernel::Durbin, Scale(0.1));
        let cached = w.build_cached(2);
        let direct = w.build(2);
        assert_eq!(cached.character, direct.character);
        assert_eq!(cached.traces.len(), direct.traces.len());
    }

    #[test]
    fn cached_schedules_are_shared_and_exact() {
        // No other test builds this key, so the first call builds it.
        let w = Workload::of(Kernel::Trisolv, Scale(0.1));
        let l1 = CacheConfig::l1();
        let l2 = CacheConfig::l2();
        let before = stats();
        let a = w.schedule_cached(2, l1, l2);
        let b = w.schedule_cached(2, l1, l2);
        let after = stats();
        assert!(Arc::ptr_eq(&a, &b), "same key must share one schedule");
        assert!(after.schedule_misses > before.schedule_misses);
        assert!(after.schedule_hits > before.schedule_hits);
        let built = w.build_cached(2);
        assert_eq!(*a, MemSchedule::build(&built.traces, l1, l2));
        // Different geometry is a different schedule.
        let c = w.schedule_cached(2, CacheConfig::l1_paper(), l2);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn memoized_schedule_matches_fresh_build_for_every_case() {
        // Property: the process-wide schedule cache is invisible — for
        // any (workload, agents) the memoized schedule is identical to
        // one derived from scratch, under either cache geometry.
        let suite = Workload::suite(Scale(0.05));
        util::for_each_case!(24, |rng| {
            let w = suite[rng.range_u64(0, suite.len() as u64 - 1) as usize];
            let agents = rng.range_u64(1, 4) as usize;
            let (l1, l2) = if rng.chance(0.5) {
                (CacheConfig::l1(), CacheConfig::l2())
            } else {
                (CacheConfig::l1_paper(), CacheConfig::l2_paper())
            };
            let memoized = w.schedule_cached(agents, l1, l2);
            let fresh = MemSchedule::build(&w.build(agents).traces, l1, l2);
            assert_eq!(*memoized, fresh, "{:?} x{agents}", w.kernel);
        });
    }

    #[test]
    fn concurrent_callers_get_one_build() {
        let w = Workload::of(Kernel::Floyd, Scale(0.1));
        let arcs: Vec<_> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(move || w.build_cached(2)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for a in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], a));
        }
    }
}
