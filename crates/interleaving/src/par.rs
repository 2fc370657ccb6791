//! The parallel exploration substrate: a small work-stealing thread
//! pool and graph-shaped drivers built on it.
//!
//! Stateless model checkers scale by exploring independent scheduling
//! branches on separate cores; this module provides the three
//! primitives the explorers need, with **no external dependencies**
//! (the build environment is fully offline, so `rayon` cannot be
//! used — the pool is a ~100-line work-stealing scheduler over
//! `std::thread::scope`):
//!
//! * [`run_tasks`] — the scheduler: each worker owns a deque, pushes
//!   spawned work locally (LIFO) and steals from other workers (FIFO)
//!   when empty;
//! * [`build_state_graph`] — parallel deduplicated expansion of a
//!   state space into an explicit graph (states interned in a sharded
//!   concurrent table);
//! * [`behaviours_of`] / [`count_leaves`] — parallel bottom-up
//!   evaluation of a DAG-shaped state graph (Kahn-style: a node is
//!   evaluated once all of its successors are), used for the memoised
//!   behaviour and execution-count dynamic programs;
//! * [`parallel_reach`] — parallel reachability with early exit, used
//!   by the data-race searches.
//!
//! Every driver is *deterministic in its result*: behaviours are
//! canonical [`BTreeSet`](std::collections::BTreeSet)s assembled by
//! order-independent unions, counts are sums over a fixed graph, and
//! reachability verdicts are exhaustive — so the parallel entry points
//! return bit-identical values to their sequential references
//! regardless of scheduling.
//!
//! # Fault isolation and budgets
//!
//! Every task runs under [`std::panic::catch_unwind`]: a panicking work
//! item is quarantined (its panic recorded in the returned
//! [`PoolOutcome`]), its siblings are cancelled, and the driver entry
//! points surface an [`EngineFault`] instead of aborting the process —
//! callers degrade to the sequential reference engine. The graph and
//! search drivers also take a [`BudgetGuard`] and check it at every
//! state expansion, so wall-clock deadlines, state caps and external
//! cancellation stop the pool cooperatively.

use std::collections::VecDeque;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use transafety_traces::Action;

use crate::budget::{BudgetGuard, EngineFault};
use crate::explore::Behaviours;
use crate::intern::{fx_hash, InternStats, StateInterner};
use crate::metrics::{Counter, ExploreMetrics, Phase};

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
/// pool in this process panics, exercising the quarantine-and-degrade
/// path. The `TRANSAFETY_INJECT_WORKER_PANIC` environment variable arms
/// the same hook once at first pool use (for end-to-end CLI tests).
#[doc(hidden)]
pub fn arm_worker_panic() {
    INJECT_PANIC.store(true, Ordering::Release);
}

/// Arms the hook from the environment, once per process.
fn arm_from_env() {
    static ARMED: OnceLock<()> = OnceLock::new();
    ARMED.get_or_init(|| {
        if std::env::var_os("TRANSAFETY_INJECT_WORKER_PANIC").is_some() {
            arm_worker_panic();
        }
    });
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
    /// Work items executed (reported in [`PoolOutcome::tasks`]).
    executed: AtomicU64,
    /// Tasks obtained by stealing (reported in [`PoolOutcome::steals`]).
    steals: AtomicU64,
    /// Idle-gate parks (reported in [`PoolOutcome::parks`]).
    parks: AtomicU64,
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
    /// Work items executed across all workers.
    pub tasks: u64,
    /// Tasks obtained by stealing from another worker's deque.
    pub steals: u64,
    /// Times a worker parked on the idle gate.
    pub parks: u64,
    /// Idle-gate wake announcements (every push, stop and final drain
    /// bumps the gate epoch once).
    pub wakes: u64,
}

impl PoolOutcome {
    /// Converts a faulted outcome into the error the drivers surface.
    fn fault(&self) -> Option<EngineFault> {
        (self.panics > 0).then(|| EngineFault {
            message: self
                .first_panic
                .clone()
                .unwrap_or_else(|| "worker panicked".to_string()),
        })
    }
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
            ..PoolOutcome::default()
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
/// panic cancels its sibling tasks) so callers can fall back to a
/// sequential reference computation.
pub fn run_tasks<T, F>(jobs: usize, seeds: Vec<T>, handler: F) -> PoolOutcome
where
    T: Send,
    F: Fn(T, &TaskContext<'_, T>) + Sync,
{
    arm_from_env();
    let jobs = jobs.max(1);
    let queue = TaskQueue {
        shards: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(seeds.len()),
        stop: AtomicBool::new(false),
        gate: IdleGate::new(),
        executed: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        parks: AtomicU64::new(0),
    };
    let faults = FaultLog::new();
    // Runs one task under panic quarantine; a caught panic cancels the
    // remaining work so the caller can degrade instead of computing a
    // silently incomplete result.
    let guarded = |task: T, ctx: &TaskContext<'_, T>| {
        queue.executed.fetch_add(1, Ordering::Relaxed);
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
        return finish(faults, &queue);
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
                            queue.steals.fetch_add(take as u64, Ordering::Relaxed);
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
                            queue.parks.fetch_add(1, Ordering::Relaxed);
                            queue.gate.sleep(seen);
                        }
                    }
                }
            });
        }
    });
    finish(faults, &queue)
}

/// Folds the queue's scheduler tallies into the fault outcome.
fn finish<T>(faults: FaultLog, queue: &TaskQueue<T>) -> PoolOutcome {
    let mut out = faults.outcome();
    out.tasks = queue.executed.load(Ordering::Relaxed);
    out.steals = queue.steals.load(Ordering::Relaxed);
    out.parks = queue.parks.load(Ordering::Relaxed);
    out.wakes = queue.gate.epoch.load(Ordering::Relaxed);
    out
}

// ---------------------------------------------------------------------
// Sharded state interning
// ---------------------------------------------------------------------

const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS; // 64

/// The shard of a pre-computed [`fx_hash`] value. The in-shard probe
/// ([`StateInterner`]'s home slot) indexes from the hash's *top* bits,
/// so the shard must not: taking them would send every key of a shard
/// to the same 1/`SHARDS` of its table. One extra multiply remixes the
/// hash, so the shard's bits vary independently of the slot's top
/// bits. Callers hash once and reuse the value for both shard
/// selection and the in-shard probe.
#[inline]
fn shard_of_hash(hash: u64) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARD_BITS)) as usize
}

struct InternShard<K> {
    states: StateInterner<K>,
    edges: Vec<Vec<(Option<Action>, u64)>>, // packed successor ids, remapped later
}

struct Interner<K> {
    shards: Vec<Mutex<InternShard<K>>>,
}

fn pack(shard: usize, local: u32) -> u64 {
    ((shard as u64) << 32) | u64::from(local)
}

impl<K: Eq + Hash + Clone> Interner<K> {
    fn new() -> Self {
        Interner {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(InternShard {
                        states: StateInterner::new(),
                        edges: Vec::new(),
                    })
                })
                .collect(),
        }
    }

    /// Interns `key`, returning its packed id and whether it was new.
    /// The key is hashed once (outside the shard lock) and cloned only
    /// when it is genuinely new.
    fn intern(&self, key: &K) -> (u64, bool) {
        let hash = fx_hash(key);
        let s = shard_of_hash(hash);
        let mut shard = self.shards[s].lock().expect("intern shard poisoned");
        let (local, fresh) = shard.states.intern_hashed_ref(hash, key);
        if fresh {
            shard.edges.push(Vec::new());
        }
        (pack(s, local), fresh)
    }

    fn set_edges(&self, packed: u64, edges: Vec<(Option<Action>, u64)>) {
        let (s, local) = ((packed >> 32) as usize, (packed & 0xFFFF_FFFF) as usize);
        self.shards[s].lock().expect("intern shard poisoned").edges[local] = edges;
    }
}

/// An explicit, deduplicated state graph: node `i` has key `nodes[i]`
/// and deterministic, move-ordered labelled edges `edges[i]`.
pub struct StateGraph<K> {
    /// The interned state of each node.
    pub nodes: Vec<K>,
    /// Labelled successor edges per node, in the move order the
    /// expansion function produced them. A `None` label is an internal
    /// machine transition with no action (e.g. a store-buffer flush
    /// under a buffered memory model); the behaviour evaluation treats
    /// it exactly like a non-external action.
    pub edges: Vec<Vec<(Option<Action>, u32)>>,
    /// The node index of the initial state.
    pub root: u32,
    /// `true` if any expansion reported hitting a bound.
    pub truncated: bool,
}

/// One state expansion: the enabled moves (optional action label plus
/// successor state) and whether a bound was hit at this state.
pub struct Expansion<K> {
    /// Enabled moves in deterministic order (`None` labels are
    /// unlabelled internal transitions such as buffer flushes).
    pub moves: Vec<(Option<Action>, K)>,
    /// Did expanding this state hit an exploration bound?
    pub truncated: bool,
}

/// Builds the full reachable state graph from `root` using `jobs`
/// workers. `expand` must be pure: equal states must produce equal
/// move lists (the function is called exactly once per distinct state).
///
/// The guard is consulted before every expansion: once it trips, the
/// remaining frontier states become leaves and the graph is marked
/// truncated. A quarantined worker panic yields an [`EngineFault`]
/// instead of a graph — callers fall back to the sequential engine.
pub fn build_state_graph<K, F>(
    jobs: usize,
    root: K,
    guard: &BudgetGuard,
    expand: F,
) -> Result<StateGraph<K>, EngineFault>
where
    K: Eq + Hash + Clone + Send + Sync,
    F: Fn(&K) -> Expansion<K> + Sync,
{
    let metrics = guard.metrics();
    let _span = metrics.span(Phase::GraphBuild);
    let interner: Interner<K> = Interner::new();
    let truncated = AtomicBool::new(false);
    let (root_id, _) = interner.intern(&root);
    guard.note_state();
    let outcome = run_tasks(
        jobs,
        vec![(root_id, root)],
        |(id, state), ctx: &TaskContext<'_, (u64, K)>| {
            if guard.should_stop() {
                // The budget tripped: this state stays a leaf; the set
                // of behaviours below it is under-approximated, which
                // the truncation flag records.
                truncated.store(true, Ordering::Relaxed);
                interner.set_edges(id, Vec::new());
                return;
            }
            let expansion = expand(&state);
            if expansion.truncated {
                truncated.store(true, Ordering::Relaxed);
            }
            let mut edges = Vec::with_capacity(expansion.moves.len());
            for (action, succ) in expansion.moves {
                let (succ_id, new) = interner.intern(&succ);
                edges.push((action, succ_id));
                if new {
                    guard.note_state();
                    ctx.push((succ_id, succ));
                }
            }
            interner.set_edges(id, edges);
        },
    );
    metrics.record_pool(outcome.tasks, outcome.steals, outcome.parks, outcome.wakes);
    if let Some(fault) = outcome.fault() {
        return Err(fault);
    }
    // Compact packed (shard, local) ids into dense indices.
    let shards: Vec<InternShard<K>> = interner
        .shards
        .into_iter()
        .map(|m| m.into_inner().expect("intern shard poisoned"))
        .collect();
    if metrics.is_enabled() {
        let stats = shards.iter().fold(InternStats::default(), |acc, s| {
            acc.merged(s.states.probe_stats())
        });
        metrics.record_intern(stats);
        // Every interned key is a distinct graph node; every probe hit
        // was a move whose successor was already known.
        metrics.add(Counter::StatesInterned, stats.keys);
        metrics.add(Counter::StatesDeduped, stats.hits);
        metrics.event("graph_build_nodes", stats.keys);
    }
    let mut base = vec![0u32; SHARDS];
    let mut total: u32 = 0;
    for (s, shard) in shards.iter().enumerate() {
        base[s] = total;
        total = total
            .checked_add(u32::try_from(shard.states.len()).expect("shard size"))
            .expect("more than 2^32 explorer states");
    }
    let dense =
        |packed: u64| -> u32 { base[(packed >> 32) as usize] + (packed & 0xFFFF_FFFF) as u32 };
    let mut nodes = Vec::with_capacity(total as usize);
    let mut edges = Vec::with_capacity(total as usize);
    for shard in shards {
        nodes.extend(shard.states.into_keys());
        edges.extend(shard.edges.into_iter().map(|es| {
            es.into_iter()
                .map(|(a, p)| (a, dense(p)))
                .collect::<Vec<_>>()
        }));
    }
    Ok(StateGraph {
        nodes,
        edges,
        root: dense(root_id),
        truncated: truncated.load(Ordering::Relaxed),
    })
}

// ---------------------------------------------------------------------
// Parallel bottom-up DAG evaluation
// ---------------------------------------------------------------------

/// Evaluates a node of the behaviour dynamic program from its
/// successor sets: the union over enabled moves, with external actions
/// prepending their value (and the empty behaviour always present, for
/// prefix closure).
fn behaviour_step(edges: &[(Option<Action>, u32)], tails: &[Arc<Behaviours>]) -> Behaviours {
    let mut set = Behaviours::new();
    set.insert(Vec::new());
    for ((action, _), tail) in edges.iter().zip(tails) {
        if let Some(Action::External(v)) = action {
            for suffix in tail.iter() {
                let mut b = Vec::with_capacity(suffix.len() + 1);
                b.push(*v);
                b.extend_from_slice(suffix);
                set.insert(b);
            }
        } else {
            set.extend(tail.iter().cloned());
        }
    }
    set
}

/// Runs the Kahn-style bottom-up evaluation of `value` over the DAG on
/// `jobs` workers: a node is evaluated once every successor is done.
///
/// All pool-invariant violations that used to abort the process — a
/// node scheduled twice, an unevaluated successor, a cycle in the
/// input graph — now surface as an [`EngineFault`] (the first two via
/// the quarantined panic, the cycle via the unevaluated root), so
/// callers can degrade to the sequential reference engine.
fn evaluate_dag<K, V, F>(
    graph: &StateGraph<K>,
    jobs: usize,
    metrics: &ExploreMetrics,
    value: F,
) -> Result<V, EngineFault>
where
    K: Sync,
    V: Clone + Send + Sync,
    F: Fn(&[(Option<Action>, u32)], &[V]) -> V + Sync,
{
    let _span = metrics.span(Phase::PoolDrain);
    let n = graph.nodes.len();
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut ready: Vec<u32> = Vec::new();
    for (i, es) in graph.edges.iter().enumerate() {
        if es.is_empty() {
            ready.push(i as u32);
        }
        for &(_, j) in es {
            preds[j as usize].push(i as u32);
        }
    }
    let remaining: Vec<AtomicUsize> = graph
        .edges
        .iter()
        .map(|es| AtomicUsize::new(es.len()))
        .collect();
    let results: Vec<OnceLock<V>> = (0..n).map(|_| OnceLock::new()).collect();
    let outcome = run_tasks(jobs, ready, |i, ctx: &TaskContext<'_, u32>| {
        let es = &graph.edges[i as usize];
        let tails: Vec<V> = es
            .iter()
            .map(|&(_, j)| {
                results[j as usize]
                    .get()
                    .expect("successor evaluated first")
                    .clone()
            })
            .collect();
        let v = value(es, &tails);
        results[i as usize]
            .set(v)
            .unwrap_or_else(|_| panic!("node evaluated twice"));
        for &p in &preds[i as usize] {
            if remaining[p as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                ctx.push(p);
            }
        }
    });
    metrics.record_pool(outcome.tasks, outcome.steals, outcome.parks, outcome.wakes);
    if let Some(fault) = outcome.fault() {
        return Err(fault);
    }
    results[graph.root as usize]
        .get()
        .cloned()
        .ok_or_else(|| EngineFault {
            message: "root never evaluated (cyclic state graph or cancelled evaluation)"
                .to_string(),
        })
}

/// The behaviours of the state graph (the parallel form of the
/// memoised suffix-behaviour dynamic program). Bit-identical to the
/// sequential computation: sets are canonical and unions commute.
/// A quarantined worker panic surfaces as an [`EngineFault`].
pub fn behaviours_of<K: Sync>(
    graph: &StateGraph<K>,
    jobs: usize,
    metrics: &ExploreMetrics,
) -> Result<Behaviours, EngineFault> {
    evaluate_dag(graph, jobs, metrics, |edges, tails: &[Arc<Behaviours>]| {
        Arc::new(behaviour_step(edges, tails))
    })
    .map(|b| b.as_ref().clone())
}

/// The number of maximal paths (executions) of the state graph, by the
/// parallel form of the counting dynamic program. Saturates at
/// `u128::MAX` (see [`count_leaves_checked`]).
/// A quarantined worker panic surfaces as an [`EngineFault`].
pub fn count_leaves<K: Sync>(
    graph: &StateGraph<K>,
    jobs: usize,
    metrics: &ExploreMetrics,
) -> Result<u128, EngineFault> {
    count_leaves_checked(graph, jobs, metrics).map(|(count, _)| count)
}

/// [`count_leaves`] with overflow accounting: path counts grow as a
/// product of branching factors, so adversarial graphs overflow even
/// `u128`. Additions are `checked_add`; on overflow the count clamps to
/// `u128::MAX` and the returned flag is `true`, so a clamped value can
/// never be mistaken for an exact count.
pub fn count_leaves_checked<K: Sync>(
    graph: &StateGraph<K>,
    jobs: usize,
    metrics: &ExploreMetrics,
) -> Result<(u128, bool), EngineFault> {
    evaluate_dag(graph, jobs, metrics, |_edges, tails: &[(u128, bool)]| {
        if tails.is_empty() {
            (1, false)
        } else {
            tails
                .iter()
                .fold((0u128, false), |(acc, sat), &(tail, tail_sat)| {
                    match acc.checked_add(tail) {
                        Some(sum) => (sum, sat || tail_sat),
                        None => (u128::MAX, true),
                    }
                })
        }
    })
}

// ---------------------------------------------------------------------
// Parallel reachability search with early exit
// ---------------------------------------------------------------------

/// One search expansion: successor states plus whether the target was
/// hit while expanding this state.
pub struct SearchStep<K> {
    /// Successor search states.
    pub successors: Vec<K>,
    /// Was the search target found at this state?
    pub found: bool,
}

/// Explores the search space from `root` on `jobs` workers, returning
/// `true` as soon as any expansion reports `found` (the pool drains
/// early) and `false` only after exhausting the space. The verdict is
/// deterministic because the search is exhaustive in the negative case.
///
/// The guard is consulted before every expansion: once it trips, the
/// remaining frontier is dropped and a negative verdict means "not
/// found within budget" (the guard's trip reason says why). A
/// quarantined worker panic surfaces as an [`EngineFault`].
pub fn parallel_reach<K, F>(
    jobs: usize,
    root: K,
    guard: &BudgetGuard,
    expand: F,
) -> Result<bool, EngineFault>
where
    K: Eq + Hash + Clone + Send + Sync,
    F: Fn(&K) -> SearchStep<K> + Sync,
{
    let visited: Vec<Mutex<StateInterner<K>>> = (0..SHARDS)
        .map(|_| Mutex::new(StateInterner::new()))
        .collect();
    let found = AtomicBool::new(false);
    let root_hash = fx_hash(&root);
    visited[shard_of_hash(root_hash)]
        .lock()
        .expect("visited shard poisoned")
        .intern_hashed_ref(root_hash, &root);
    guard.note_state();
    let outcome = run_tasks(jobs, vec![root], |state, ctx: &TaskContext<'_, K>| {
        if found.load(Ordering::Acquire) {
            return;
        }
        if guard.should_stop() {
            ctx.stop();
            return;
        }
        let step = expand(&state);
        if step.found {
            found.store(true, Ordering::Release);
            ctx.stop();
            return;
        }
        for succ in step.successors {
            // Hash once; clone into the shard only when actually new.
            let hash = fx_hash(&succ);
            let (_, fresh) = visited[shard_of_hash(hash)]
                .lock()
                .expect("visited shard poisoned")
                .intern_hashed_ref(hash, &succ);
            if fresh {
                guard.note_state();
                ctx.push(succ);
            }
        }
    });
    record_shard_stats(guard.metrics(), &outcome, &visited);
    if let Some(fault) = outcome.fault() {
        return Err(fault);
    }
    Ok(found.load(Ordering::Acquire))
}

/// Folds a search driver's pool outcome and sharded visited-set stats
/// into the run's metrics (no-op on the disabled collector).
fn record_shard_stats<K: Eq + Hash>(
    metrics: &ExploreMetrics,
    outcome: &PoolOutcome,
    shards: &[Mutex<StateInterner<K>>],
) {
    if !metrics.is_enabled() {
        return;
    }
    metrics.record_pool(outcome.tasks, outcome.steals, outcome.parks, outcome.wakes);
    let stats = shards.iter().fold(InternStats::default(), |acc, s| {
        acc.merged(
            s.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .probe_stats(),
        )
    });
    metrics.record_intern(stats);
    metrics.add(Counter::StatesInterned, stats.keys);
    metrics.add(Counter::StatesDeduped, stats.hits);
}

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

/// Counts the distinct states reachable from `root` on `jobs` workers.
///
/// The guard is consulted before every expansion (a tripped guard
/// leaves the count partial; its trip reason records why). A
/// quarantined worker panic surfaces as an [`EngineFault`].
pub fn parallel_state_count<K, F>(
    jobs: usize,
    root: K,
    guard: &BudgetGuard,
    expand: F,
) -> Result<usize, EngineFault>
where
    K: Eq + Hash + Clone + Send + Sync,
    F: Fn(&K) -> Vec<K> + Sync,
{
    let visited: Vec<Mutex<StateInterner<K>>> = (0..SHARDS)
        .map(|_| Mutex::new(StateInterner::new()))
        .collect();
    let root_hash = fx_hash(&root);
    visited[shard_of_hash(root_hash)]
        .lock()
        .expect("visited shard poisoned")
        .intern_hashed_ref(root_hash, &root);
    guard.note_state();
    let outcome = run_tasks(jobs, vec![root], |state, ctx: &TaskContext<'_, K>| {
        if guard.should_stop() {
            ctx.stop();
            return;
        }
        for succ in expand(&state) {
            let hash = fx_hash(&succ);
            let (_, fresh) = visited[shard_of_hash(hash)]
                .lock()
                .expect("visited shard poisoned")
                .intern_hashed_ref(hash, &succ);
            if fresh {
                guard.note_state();
                ctx.push(succ);
            }
        }
    });
    record_shard_stats(guard.metrics(), &outcome, &visited);
    if let Some(fault) = outcome.fault() {
        return Err(fault);
    }
    Ok(visited
        .iter()
        .map(|s| s.lock().expect("visited shard poisoned").len())
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_interner_keeps_probe_chains_short() {
        // Shard selection must not reuse the bits the in-shard home slot
        // indexes from: if it does, every key of a shard lands in the
        // same 1/SHARDS of that shard's table and the mean probe chain
        // grows with the table (hundreds of slots at this size).
        let interner: Interner<u64> = Interner::new();
        let n: u64 = 100_000;
        for i in 0..n {
            assert!(interner.intern(&i).1, "{i} is new");
        }
        // Exploration revisits states: every key once more, as a hit.
        for i in 0..n {
            assert!(!interner.intern(&i).1, "{i} was interned");
        }
        let stats = interner
            .shards
            .iter()
            .fold(InternStats::default(), |acc, s| {
                acc.merged(s.lock().expect("shard").states.probe_stats())
            });
        assert_eq!(stats.keys, n);
        assert!(
            stats.collisions <= 2 * stats.probes,
            "mean probe chain {:.2} ({} collisions over {} probes)",
            stats.collisions as f64 / stats.probes as f64,
            stats.collisions,
            stats.probes
        );
    }

    #[test]
    fn parallel_map_preserves_order() {
        for jobs in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..100).collect();
            let out = parallel_map(jobs, &items, |x| x * x);
            assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn run_tasks_processes_spawned_work() {
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
    fn graph_build_and_count_on_grid() {
        // states (i, j) with i, j <= N, edges increment one coordinate;
        // leaves = 1, path count = C(2N, N).
        let n = 8u32;
        for jobs in [1, 4] {
            let g = build_state_graph(jobs, (0u32, 0u32), &BudgetGuard::unlimited(), |&(i, j)| {
                let mut moves = Vec::new();
                if i < n {
                    moves.push((
                        Some(Action::external(transafety_traces::Value::new(0))),
                        (i + 1, j),
                    ));
                }
                if j < n {
                    moves.push((
                        Some(Action::external(transafety_traces::Value::new(1))),
                        (i, j + 1),
                    ));
                }
                Expansion {
                    moves,
                    truncated: false,
                }
            })
            .expect("no faults");
            assert_eq!(g.nodes.len(), ((n + 1) * (n + 1)) as usize);
            assert!(!g.truncated);
            assert_eq!(
                count_leaves(&g, jobs, &ExploreMetrics::disabled()).expect("no faults"),
                12870
            ); // C(16, 8)
        }
    }

    #[test]
    fn count_leaves_saturates_instead_of_wrapping() {
        // A chain of 128 levels with 4 parallel edges per level:
        // 4^128 = 2^256 maximal paths, far past u128::MAX.
        let g = build_state_graph(2, 0u32, &BudgetGuard::unlimited(), |&s| Expansion {
            moves: if s < 128 {
                (0..4)
                    .map(|v| {
                        (
                            Some(Action::external(transafety_traces::Value::new(v))),
                            s + 1,
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            },
            truncated: false,
        })
        .expect("no faults");
        for jobs in [1, 4] {
            let m = ExploreMetrics::disabled();
            let (count, saturated) = count_leaves_checked(&g, jobs, &m).expect("no faults");
            assert_eq!(count, u128::MAX, "jobs={jobs}");
            assert!(saturated, "jobs={jobs}: overflow must be flagged");
            assert_eq!(count_leaves(&g, jobs, &m).expect("no faults"), u128::MAX);
        }
    }

    #[test]
    fn idle_workers_sleep_and_wake_on_late_work() {
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
    fn parallel_reach_finds_and_exhausts() {
        let hit = |target: u32, jobs| {
            parallel_reach(jobs, 0u32, &BudgetGuard::unlimited(), |&s| SearchStep {
                successors: if s < 20 { vec![s + 1] } else { vec![] },
                found: s == target,
            })
            .expect("no faults")
        };
        for jobs in [1, 3] {
            assert!(hit(20, jobs));
            assert!(!hit(21, jobs));
        }
    }

    #[test]
    fn state_cap_truncates_graph_build() {
        use crate::budget::{Budget, CancelToken};
        let guard = BudgetGuard::new(&Budget::unlimited().max_states(10), CancelToken::new());
        // A long chain of 1000 states under a 10-state cap.
        let g = build_state_graph(2, 0u32, &guard, |&s| Expansion {
            moves: if s < 1000 {
                vec![(
                    Some(Action::external(transafety_traces::Value::new(0))),
                    s + 1,
                )]
            } else {
                vec![]
            },
            truncated: false,
        })
        .expect("no faults");
        assert!(g.truncated, "the cap must mark the graph truncated");
        assert!(g.nodes.len() < 1000, "exploration stopped early");
        assert!(guard.trip_reason().is_some());
    }

    #[test]
    fn cancellation_stops_parallel_reach() {
        use crate::budget::{Budget, CancelToken, TruncationReason};
        let token = CancelToken::new();
        let guard = BudgetGuard::new(&Budget::unlimited(), token.clone());
        token.cancel();
        let found = parallel_reach(4, 0u64, &guard, |&s| SearchStep {
            successors: vec![s + 1, s + 2], // infinite space
            found: s == u64::MAX,
        })
        .expect("no faults");
        assert!(!found);
        assert_eq!(guard.trip_reason(), Some(TruncationReason::Cancelled));
    }
}
