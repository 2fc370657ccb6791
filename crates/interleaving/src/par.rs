//! The parallel substrate: one order-preserving [`parallel_map`].
//!
//! The verdict phases run the sequential engines at every job count;
//! the map serves the callers whose work is a flat list of independent
//! items — the fuzz driver's cases, `classify`'s traceset pair and the
//! out-of-thin-air origin scan. It has **no external dependencies**
//! (the build is fully offline, so `rayon` cannot be used): up to
//! `jobs` scoped threads claim the next item index from one shared
//! counter, and the results come back in input order, so the output is
//! independent of scheduling.
//!
//! # Fault isolation
//!
//! Every item runs under [`std::panic::catch_unwind`]: a panicking item
//! is quarantined instead of aborting the process, its worker moves on
//! to the next index, and the calling thread recomputes the slot the
//! panic left empty once the workers are done, so the result is always
//! complete. A panic that recurs on the recompute reaches the caller.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The number of worker threads to use by default: the machine's
/// available parallelism (1 if it cannot be determined).
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// When set, the next item a worker maps panics (one item per arming).
static INJECT_PANIC: AtomicBool = AtomicBool::new(false);

/// Arms the test-only fault hook: the next item mapped on a
/// [`parallel_map`] worker in this process panics, exercising the
/// quarantine-and-recompute path.
#[doc(hidden)]
pub fn arm_worker_panic() {
    INJECT_PANIC.store(true, Ordering::Release);
}

/// Is the test-only fault hook still armed (no worker has consumed the
/// last [`arm_worker_panic`])?
#[doc(hidden)]
#[must_use]
pub fn worker_panic_armed() -> bool {
    INJECT_PANIC.load(Ordering::Acquire)
}

/// Panics if the injection hook is armed (consuming the arming).
fn maybe_inject_panic() {
    if INJECT_PANIC
        .compare_exchange(true, false, Ordering::AcqRel, Ordering::Relaxed)
        .is_ok()
    {
        panic!("injected worker panic (test hook)");
    }
}

/// Applies `f` to every item on `min(jobs, items.len())` scoped
/// threads, returning the results in input order. With `jobs <= 1` or
/// a single item it is a plain sequential map on the calling thread.
///
/// An item whose call panicked is recomputed inline on the calling
/// thread after the workers finish — the per-item sequential
/// degradation path.
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // Relaxed: the index publishes no data; results return via `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                return done;
            };
            let mapped = catch_unwind(AssertUnwindSafe(|| {
                maybe_inject_panic();
                f(item)
            }));
            if let Ok(result) = mapped {
                done.push((index, result));
            }
        }
    };
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(items.len()))
            .map(|_| scope.spawn(work))
            .collect();
        for worker in workers {
            let done = worker.join().expect("map worker panicked outside an item");
            for (index, result) in done {
                slots[index] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .zip(items)
        .map(|(slot, item)| slot.unwrap_or_else(|| f(item)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The injection hook is process-wide, so the map tests run one at
    /// a time: an armed hook must poison the arming test's map and no
    /// other.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn parallel_map_preserves_order() {
        let _serial = serial();
        for jobs in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..100).collect();
            let out = parallel_map(jobs, &items, |x| x * x);
            assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn every_item_is_mapped_exactly_once() {
        let _serial = serial();
        let items: Vec<usize> = (0..1_000).collect();
        let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        let out = parallel_map(4, &items, |&i| calls[i].fetch_add(1, Ordering::Relaxed));
        assert!(out.iter().all(|&before| before == 0));
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn quarantined_panic_is_recomputed_inline() {
        let _serial = serial();
        arm_worker_panic();
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(4, &items, |x| x * 3);
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<u64>>());
        assert!(!worker_panic_armed(), "the map consumed the arming");
    }

    #[test]
    fn a_panic_that_recurs_on_the_recompute_reaches_the_caller() {
        let _serial = serial();
        let items: Vec<u64> = (0..16).collect();
        let caught = catch_unwind(|| {
            parallel_map(4, &items, |&x| {
                assert_ne!(x, 5, "item 5 always panics");
                x
            })
        });
        assert!(caught.is_err());
    }
}
