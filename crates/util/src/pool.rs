//! A zero-dependency scoped-thread pool (replaces `rayon`).
//!
//! The sweep engine runs every `config × workload` cell of the paper's
//! evaluation grid as one item of a [`Pool::map`] call, and the fleet
//! prices its kernels and aggregates its requests the same way. Design:
//!
//! * **One shared cursor** — the calling thread and up to
//!   `threads - 1` helpers claim items from one atomic index, so items
//!   start in the order they are handed over: a cost-descending list
//!   keeps the most expensive cells running earliest.
//! * **Borrowed work** — the helpers are [`std::thread::scope`] threads
//!   that end with the call, so the items and the closure are borrowed,
//!   never boxed or cloned, and a 1-thread pool is a plain loop on the
//!   caller.
//! * **Panic propagation** — with helpers, every item runs under
//!   `catch_unwind`; once every item has settled, the first panic by
//!   item order is re-raised on the caller. The 1-thread loop unwinds
//!   at that same item.
//! * **Determinism** — results come back in item order no matter which
//!   thread ran which item, so a parallel run is byte-identical to a
//!   serial one for deterministic items.
//!
//! The process-wide [`global`] pool sizes itself from the
//! `DRAMLESS_THREADS` environment variable (clamped to at least 1),
//! falling back to [`std::thread::available_parallelism`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// A pool of `threads` execution contexts: the caller plus up to
/// `threads - 1` helper threads per [`Pool::map`] call. See the
/// [module docs](self) for the design.
#[derive(Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Creates a pool with `threads` total execution contexts (at
    /// least 1). `Pool::new(1)` never spawns a thread.
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Total execution contexts (the caller included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, returning the results in item order.
    /// The calling thread runs items too, and items start in slice
    /// order.
    ///
    /// # Panics
    ///
    /// If `f` panicked on any item, the first (by item order) panic
    /// payload is re-raised after every item has settled. On a 1-thread
    /// pool the loop unwinds at that same item, and later items do not
    /// run.
    pub fn map<I: Sync, T: Send>(&self, items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
        let helpers = self.threads.min(items.len()).saturating_sub(1);
        if helpers == 0 {
            return items.iter().map(f).collect();
        }
        // The cursor only hands out indices: the items exist before any
        // helper spawns and the results come back through `join`, so
        // `Relaxed` has no other data to publish.
        let next = AtomicUsize::new(0);
        let work = || {
            let mut ran = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { return ran };
                ran.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
            }
        };
        let mut ran = thread::scope(|s| {
            let handles: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
            let mut ran = work();
            for h in handles {
                ran.extend(h.join().expect("items run under catch_unwind"));
            }
            ran
        });
        ran.sort_unstable_by_key(|&(i, _)| i);
        ran.into_iter()
            .map(|(_, r)| r.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }
}

/// Parses a thread-count override ("1".."1024"); `None` falls through
/// to hardware parallelism.
fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, 1024))
}

/// The process-wide pool: `DRAMLESS_THREADS` (read once, at first use)
/// or [`std::thread::available_parallelism`].
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = parse_threads(std::env::var("DRAMLESS_THREADS").ok().as_deref())
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()));
        Pool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn range(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn empty_task_list_returns_empty() {
        let pool = Pool::new(4);
        let out: Vec<u64> = pool.map(&[], |&x: &u64| x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_preserve_submission_order() {
        let pool = Pool::new(4);
        let out = pool.map(&range(100), |&i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn more_tasks_than_threads() {
        let pool = Pool::new(2);
        let out = pool.map(&range(512), |&i| i as u64 + 1);
        assert_eq!(out.len(), 512);
        assert_eq!(out.iter().sum::<u64>(), (1..=512u64).sum());
    }

    #[test]
    fn single_thread_pool_is_serial() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = thread::current().id();
        let out = pool.map(&range(10), |&i| (i, thread::current().id()));
        assert_eq!(out.iter().map(|&(i, _)| i).collect::<Vec<_>>(), range(10));
        assert!(out.iter().all(|&(_, id)| id == caller));
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = Pool::new(3);
        let message = |r: thread::Result<Vec<usize>>| {
            let payload = r.expect_err("panic must propagate");
            payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("(non-str payload)")
        };

        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&range(8), |&i| match i {
                4 => panic!("task exploded on purpose"),
                _ => i,
            })
        }));
        assert_eq!(message(r), "task exploded on purpose");

        // Two items panic; item 2 waits until item 5 has panicked, so
        // the caller must get the lower-indexed payload even though it
        // was raised last.
        let five_panicked = AtomicBool::new(false);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&range(8), |&i| match i {
                2 => {
                    while !five_panicked.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    panic!("item two")
                }
                5 => {
                    five_panicked.store(true, Ordering::SeqCst);
                    panic!("item five")
                }
                _ => i,
            })
        }));
        assert_eq!(message(r), "item two");

        // The pool survives a panicking batch.
        assert_eq!(pool.map(&range(4), |&i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_run_from_within_a_task_does_not_deadlock() {
        let pool = Pool::new(2);
        let out = pool.map(&range(4), |&o| {
            pool.map(&range(8), |&i| (o * 8 + i) as u64)
                .iter()
                .sum::<u64>()
        });
        assert_eq!(out.iter().sum::<u64>(), (0..32u64).sum());
    }

    #[test]
    fn nested_run_on_global_pool() {
        let out = global().map(&range(3), |&o| global().map(&range(5), |&i| o + i).len());
        assert_eq!(out, vec![5, 5, 5]);
    }

    #[test]
    fn threads_env_parsing() {
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
        assert_eq!(parse_threads(Some("0")), Some(1)); // clamped
        assert_eq!(parse_threads(Some("many")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn heavier_tasks_still_balance() {
        // Mixed costs: the long item must not hold the rest back on a
        // multi-thread pool (a smoke check that the other threads keep
        // claiming; exact timing is not asserted to keep CI stable).
        let pool = Pool::new(4);
        let out = pool.map(&range(64), |&i| {
            let spins = if i == 0 { 200_000 } else { 1_000 };
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_add(std::hint::black_box(k));
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }
}
