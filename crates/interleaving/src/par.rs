//! The parallel substrate: a small work-stealing thread pool and an
//! order-preserving parallel map built on it.
//!
//! The verdict phases run the sequential engines at every job count;
//! the pool serves the callers whose work splits into independent
//! items — the fuzz driver's cases, `classify`'s traceset pair and the
//! out-of-thin-air origin scan. It has **no external dependencies**
//! (the build is fully offline, so `rayon` cannot be used — the pool is
//! a ~100-line work-stealing scheduler over `std::thread::scope`):
//!
//! * [`run_tasks`] — the scheduler: each worker owns a deque, pushes
//!   spawned work locally (LIFO) and steals from other workers (FIFO)
//!   when empty;
//! * [`parallel_map`] — applies a function to every item of a slice on
//!   the pool and returns the results in input order, so the output is
//!   independent of scheduling.
//!
//! # Fault isolation
//!
//! Every task runs under [`std::panic::catch_unwind`]: a panicking work
//! item is quarantined (its panic recorded in the returned
//! [`PoolOutcome`]) and its siblings are cancelled instead of the
//! process aborting. [`parallel_map`] recomputes the items a quarantined
//! panic left unmapped inline on the calling thread, so its result is
//! always complete.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// The number of worker threads to use by default: the machine's
/// available parallelism (1 if it cannot be determined).
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

// ---------------------------------------------------------------------
// Fault injection (test-only hook)
// ---------------------------------------------------------------------

/// When set, the next task processed by any pool panics (then the flag
/// clears, so exactly one task is poisoned per arming).
static INJECT_PANIC: AtomicBool = AtomicBool::new(false);

/// Arms the test-only fault hook: the next work item processed by any
/// pool in this process panics, exercising the quarantine-and-recompute
/// path.
#[doc(hidden)]
pub fn arm_worker_panic() {
    INJECT_PANIC.store(true, Ordering::Release);
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

// ---------------------------------------------------------------------
// Work-stealing scheduler
// ---------------------------------------------------------------------

/// The idle-worker gate: an eventcount. A worker that finds no work
/// snapshots the epoch, re-verifies that nothing is queued, and sleeps
/// only if the epoch is still unchanged; every producer bumps the epoch
/// before checking for sleepers, so (both sides being `SeqCst`) a
/// store-buffering miss — the producer seeing no idlers while the idler
/// sees a stale epoch — is impossible and no wakeup is ever lost.
/// Replaces the old 50µs spin-then-sleep poll: idle workers burn no CPU
/// and wake at notify latency instead of polling latency.
struct IdleGate {
    epoch: AtomicU64,
    idlers: AtomicUsize,
    mutex: Mutex<()>,
    cv: Condvar,
}

impl IdleGate {
    fn new() -> Self {
        IdleGate {
            epoch: AtomicU64::new(0),
            idlers: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// The epoch to pass to a later [`sleep`](IdleGate::sleep).
    fn snapshot(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Announces new work (or a state change sleepers must observe).
    /// The epoch bump is one atomic; the mutex and condvar are touched
    /// only when some worker is actually asleep.
    fn wake(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.idlers.load(Ordering::SeqCst) > 0 {
            // Taking (and dropping) the mutex orders this notify after
            // any sleeper currently between its idler registration and
            // its condvar wait, which holds the mutex for that window.
            drop(self.mutex.lock().expect("idle gate poisoned"));
            self.cv.notify_all();
        }
    }

    /// Blocks until the epoch moves past `seen` (or a spurious wakeup;
    /// the worker loop re-checks for work after every return).
    fn sleep(&self, seen: u64) {
        let guard = self.mutex.lock().expect("idle gate poisoned");
        self.idlers.fetch_add(1, Ordering::SeqCst);
        if self.epoch.load(Ordering::SeqCst) == seen {
            let _woken = self.cv.wait(guard).expect("idle gate poisoned");
        }
        self.idlers.fetch_sub(1, Ordering::SeqCst);
    }
}

struct TaskQueue<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    /// Tasks queued or currently being processed; the pool is done when
    /// this reaches zero.
    pending: AtomicUsize,
    stop: AtomicBool,
    gate: IdleGate,
}

impl<T> TaskQueue<T> {
    /// Is any deque non-empty? A shard whose lock is contended counts
    /// as work (someone is pushing or popping right now), so a
    /// worker deciding whether to sleep errs on the side of staying
    /// awake.
    fn has_queued_work(&self) -> bool {
        self.shards.iter().any(|s| match s.try_lock() {
            Ok(q) => !q.is_empty(),
            Err(_) => true,
        })
    }
}

/// Handle given to task handlers for spawning follow-up work and for
/// cooperative early exit.
pub struct TaskContext<'q, T> {
    queue: &'q TaskQueue<T>,
    worker: usize,
}

impl<T> TaskContext<'_, T> {
    /// Spawns a follow-up task (onto this worker's own deque, so
    /// recently produced work is processed depth-first unless stolen).
    pub fn push(&self, task: T) {
        self.queue.pending.fetch_add(1, Ordering::AcqRel);
        self.queue.shards[self.worker]
            .lock()
            .expect("task deque poisoned")
            .push_back(task);
        self.queue.gate.wake();
    }

    /// Requests early termination of the whole pool (remaining tasks
    /// are dropped). Used by searches once a witness is found.
    pub fn stop(&self) {
        self.queue.stop.store(true, Ordering::Release);
        self.queue.gate.wake();
    }

    /// Has early termination been requested?
    #[must_use]
    pub fn stopped(&self) -> bool {
        self.queue.stop.load(Ordering::Acquire)
    }
}

/// What happened while a pool drained: how many work items panicked
/// (each quarantined by `catch_unwind`, cancelling the remaining work)
/// and the first panic's message.
#[derive(Debug, Default)]
pub struct PoolOutcome {
    /// Number of quarantined worker panics.
    pub panics: usize,
    /// The payload of the first panic, when it was a string.
    pub first_panic: Option<String>,
}

/// Shared panic accounting for one pool run.
struct FaultLog {
    panics: AtomicUsize,
    first: Mutex<Option<String>>,
}

impl FaultLog {
    fn new() -> Self {
        FaultLog {
            panics: AtomicUsize::new(0),
            first: Mutex::new(None),
        }
    }

    fn record(&self, payload: &(dyn std::any::Any + Send)) {
        self.panics.fetch_add(1, Ordering::AcqRel);
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        if let Some(m) = message {
            let mut slot = self.first.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(m);
        }
    }

    fn outcome(self) -> PoolOutcome {
        PoolOutcome {
            panics: self.panics.load(Ordering::Acquire),
            first_panic: self.first.into_inner().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

/// Runs `seeds` and all transitively spawned tasks to completion on
/// `jobs` workers (clamped to at least 1). Tasks may spawn further
/// tasks through the [`TaskContext`]; idle workers steal queued tasks
/// from the back of their own deque first and from the front of other
/// workers' deques otherwise.
///
/// A panicking task does not abort the process: it is caught, counted
/// in the returned [`PoolOutcome`], and the pool drains early (the
/// panic cancels its sibling tasks) so callers can recompute the
/// unfinished work sequentially, as [`parallel_map`] does.
pub fn run_tasks<T, F>(jobs: usize, seeds: Vec<T>, handler: F) -> PoolOutcome
where
    T: Send,
    F: Fn(T, &TaskContext<'_, T>) + Sync,
{
    let jobs = jobs.max(1);
    let queue = TaskQueue {
        shards: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(seeds.len()),
        stop: AtomicBool::new(false),
        gate: IdleGate::new(),
    };
    let faults = FaultLog::new();
    // Runs one task under panic quarantine; a caught panic cancels the
    // remaining work so the caller can recompute it instead of using a
    // silently incomplete result.
    let guarded = |task: T, ctx: &TaskContext<'_, T>| {
        let result = catch_unwind(AssertUnwindSafe(|| {
            maybe_inject_panic();
            handler(task, ctx);
        }));
        if let Err(payload) = result {
            faults.record(payload.as_ref());
            ctx.stop();
        }
    };
    // Scatter the seeds round-robin so workers start with local work.
    for (i, seed) in seeds.into_iter().enumerate() {
        queue.shards[i % jobs]
            .lock()
            .expect("task deque poisoned")
            .push_back(seed);
    }
    if jobs == 1 {
        // Inline execution: no threads, same semantics.
        let ctx = TaskContext {
            queue: &queue,
            worker: 0,
        };
        while !ctx.stopped() {
            let next = queue.shards[0]
                .lock()
                .expect("task deque poisoned")
                .pop_back();
            match next {
                Some(task) => {
                    guarded(task, &ctx);
                    queue.pending.fetch_sub(1, Ordering::AcqRel);
                }
                None => break,
            }
        }
        return faults.outcome();
    }
    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let queue = &queue;
            let guarded = &guarded;
            scope.spawn(move || {
                let ctx = TaskContext { queue, worker };
                let mut spins = 0u32;
                loop {
                    if ctx.stopped() {
                        break;
                    }
                    // Own deque first (LIFO), then steal (FIFO).
                    let mut task = queue.shards[worker]
                        .lock()
                        .expect("task deque poisoned")
                        .pop_back();
                    if task.is_none() {
                        // Steal half of the first non-empty victim deque
                        // in one lock acquisition: batching amortises the
                        // lock traffic, and `try_lock` keeps contending
                        // stealers from serialising on a busy producer.
                        for off in 1..queue.shards.len() {
                            let victim = (worker + off) % queue.shards.len();
                            let Ok(mut v) = queue.shards[victim].try_lock() else {
                                continue;
                            };
                            let take = v.len().div_ceil(2);
                            if take == 0 {
                                continue;
                            }
                            let mut grabbed: VecDeque<T> = v.drain(..take).collect();
                            drop(v);
                            task = grabbed.pop_front();
                            if !grabbed.is_empty() {
                                queue.shards[worker]
                                    .lock()
                                    .expect("task deque poisoned")
                                    .extend(grabbed);
                            }
                            break;
                        }
                    }
                    match task {
                        Some(task) => {
                            spins = 0;
                            guarded(task, &ctx);
                            if queue.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                                // Last in-flight task: wake sleepers so
                                // they observe the drain and exit.
                                queue.gate.wake();
                            }
                        }
                        None => {
                            if queue.pending.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            spins += 1;
                            if spins <= 64 {
                                // Brief spin phase: work usually arrives
                                // within a few steal attempts.
                                std::thread::yield_now();
                                continue;
                            }
                            // Park on the gate until a push, a stop or
                            // the final drain. The snapshot-then-recheck
                            // order makes the sleep race-free: anything
                            // queued after the snapshot bumps the epoch
                            // and the sleep returns immediately.
                            let seen = queue.gate.snapshot();
                            if ctx.stopped()
                                || queue.pending.load(Ordering::Acquire) == 0
                                || queue.has_queued_work()
                            {
                                continue;
                            }
                            queue.gate.sleep(seen);
                        }
                    }
                }
            });
        }
    });
    faults.outcome()
}

// ---------------------------------------------------------------------
// Order-preserving parallel map
// ---------------------------------------------------------------------

/// Applies `f` to every item on `jobs` workers, returning the results
/// in input order (so the output is independent of scheduling).
///
/// A quarantined worker panic leaves its slot (and any slots the early
/// drain dropped) unmapped; those items are recomputed inline on the
/// calling thread — the per-item sequential degradation path.
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let indexed: Vec<usize> = (0..items.len()).collect();
    run_tasks(jobs, indexed, |i, _ctx: &TaskContext<'_, usize>| {
        let r = f(&items[i]);
        *results[i].lock().expect("result slot poisoned") = Some(r);
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| f(&items[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The injection hook is process-wide, so the pool tests run one at
    /// a time: an armed hook must poison the arming test's pool and no
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
    fn run_tasks_processes_spawned_work() {
        let _serial = serial();
        for jobs in [1, 2, 4] {
            let count = AtomicUsize::new(0);
            // Seed 1 task that spawns a binary tree of depth 10.
            let outcome = run_tasks(jobs, vec![0u32], |depth, ctx: &TaskContext<'_, u32>| {
                count.fetch_add(1, Ordering::Relaxed);
                if depth < 10 {
                    ctx.push(depth + 1);
                    ctx.push(depth + 1);
                }
            });
            assert_eq!(count.load(Ordering::Relaxed), (1 << 11) - 1, "jobs={jobs}");
            assert_eq!(outcome.panics, 0);
        }
    }

    #[test]
    fn early_stop_terminates() {
        let _serial = serial();
        let count = AtomicUsize::new(0);
        run_tasks(4, vec![0u64], |n, ctx: &TaskContext<'_, u64>| {
            if count.fetch_add(1, Ordering::Relaxed) > 100 {
                ctx.stop();
                return;
            }
            ctx.push(n + 1);
            ctx.push(n + 2);
        });
        // the pool stopped rather than exploring the infinite space
        assert!(count.load(Ordering::Relaxed) < 100_000);
    }

    #[test]
    fn idle_workers_sleep_and_wake_on_late_work() {
        let _serial = serial();
        // One producer task trickles out work slowly enough that the
        // other workers exhaust their spin phase and park on the gate;
        // every wakeup must be delivered (a lost one would hang the
        // pool, which the test harness would report as a timeout).
        let done = AtomicUsize::new(0);
        let outcome = run_tasks(4, vec![0u32], |n, ctx: &TaskContext<'_, u32>| {
            if n < 10 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                ctx.push(n + 1);
                ctx.push(100 + n); // a leaf for a parked worker
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(outcome.panics, 0);
        assert_eq!(done.load(Ordering::Relaxed), 21);
    }

    #[test]
    fn quarantined_panic_is_counted_and_parallel_map_recomputes() {
        let _serial = serial();
        arm_worker_panic();
        let outcome = run_tasks(2, (0..8u32).collect(), |_, _ctx: &TaskContext<'_, u32>| {});
        assert_eq!(outcome.panics, 1);
        assert_eq!(
            outcome.first_panic.as_deref(),
            Some("injected worker panic (test hook)")
        );
        // The panic cancels the siblings; the map recomputes every slot
        // the drain left empty, in order.
        arm_worker_panic();
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(4, &items, |x| x * 3);
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<u64>>());
        assert!(
            !INJECT_PANIC.load(Ordering::Acquire),
            "the map's pool consumed the arming"
        );
    }
}
