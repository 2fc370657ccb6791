//! Exhaustive exploration of the sequentially consistent executions of a
//! finite traceset.
//!
//! # State representation
//!
//! The explorer canonicalises every machine state into a compact
//! word-buffer encoding (see [`StateSpace`]): per-thread trie cursors,
//! dense memory indexed by pre-computed location ids, and an inline lock
//! table, all packed into one `Box<[u32]>`. States are interned into a
//! [`StateInterner`] which hands out dense `u32` ids; every memo and
//! visited structure keys on ids, and hashing uses the cheap
//! [`intern::FxHasher`](crate::intern::FxHasher) over the word buffer.
//! The encoding is bijective with the uncompressed `BTreeMap`
//! representation on reachable states (checked by
//! [`audit_intern`](Explorer::audit_intern) and the property suite), so
//! verdicts, behaviours and state counts are bit-identical to the
//! pre-interning engine — which is retained as the `*_reference` entry
//! points for differential testing and benchmarking.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use transafety_traces::{Action, Loc, Monitor, Traceset, Value};

use crate::budget::BudgetGuard;
use crate::intern::{FxHashSet, IdMap, InternAudit, ScratchPool, StateInterner};
use crate::metrics::{Counter, CounterTally, ExpansionKind, Phase};
use crate::{Event, IndexedTraceset, Interleaving};

/// The behaviours of a program: a prefix-closed set of sequences of
/// external-action values (§1/§5 of the paper observe programs through
/// their external actions).
pub type Behaviours = BTreeSet<Vec<Value>>;

/// Caps on exploration size, used by the execution-enumerating entry
/// points to stay total on adversarial inputs.
///
/// # Example
///
/// ```
/// use transafety_interleaving::ExploreLimits;
/// let limits = ExploreLimits::default();
/// assert!(limits.max_interleavings > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreLimits {
    /// Maximum number of maximal executions to materialise.
    pub max_interleavings: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_interleavings: 1_000_000,
        }
    }
}

/// A data race found by the explorer: a concrete execution ending in two
/// adjacent conflicting actions of different threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceWitness {
    /// The racy execution; the race is between its last two events.
    pub execution: Interleaving,
}

impl RaceWitness {
    /// The index of the first event of the racing pair.
    #[must_use]
    pub fn index(&self) -> usize {
        self.execution.len() - 2
    }

    /// The two racing events.
    #[must_use]
    pub fn pair(&self) -> (Event, Event) {
        let n = self.execution.len();
        (self.execution[n - 2], self.execution[n - 1])
    }
}

impl std::fmt::Display for RaceWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (a, b) = self.pair();
        write!(f, "data race between {a} and {b} in {}", self.execution)
    }
}

/// Exhaustive explorer of the sequentially consistent executions of a
/// [`Traceset`] (§3).
///
/// All entry points are *exact* for the (finite) traceset:
///
/// * [`behaviours`](Explorer::behaviours) — the set of behaviours of all
///   executions, computed by memoised dynamic programming over explorer
///   states (never materialises the exponentially many interleavings);
/// * [`race_witness`](Explorer::race_witness) /
///   [`is_data_race_free`](Explorer::is_data_race_free) — the §3
///   adjacent-conflict data-race condition, by memoised search;
/// * [`maximal_executions`](Explorer::maximal_executions) — the raw
///   enumeration (exponential; intended for the paper's litmus-sized
///   programs and for cross-validating the clever entry points);
/// * [`count_maximal_executions`](Explorer::count_maximal_executions) —
///   counting by dynamic programming.
///
/// # Partial-order reduction
///
/// The behaviour and race entry points apply a **dynamic** happens-before
/// commutativity partial-order reduction (ample-set style) by default:
/// when every possible next action of some thread is *invisible* — it
/// neither synchronises nor conflicts with any action another thread
/// can **still** perform from the current state on, judged against
/// per-trie-node *suffix* footprints rather than whole-program static
/// ones — only that thread is expanded, pruning the
/// Mazurkiewicz-equivalent interleavings of commuting moves. Because
/// footprints shrink as cursors advance, a location that was contended
/// early in the run becomes private once its last foreign access is
/// behind every other thread, and the reduction keeps firing where a
/// static footprint would block it forever. The race search pairs this
/// with a *check-before-carry* discipline: ample moves are race-checked
/// against the last recorded access (an invisible move can still
/// conflict with a *past* access) and then carry the tracker through
/// unchanged. The reduction preserves the behaviour set and the
/// existence of §3 adjacent-conflict races exactly (see
/// `docs/paper-mapping.md`);
/// [`por`](Explorer::por)`(false)` restores the unreduced engine. The
/// counting and enumeration entry points
/// ([`maximal_executions`](Explorer::maximal_executions),
/// [`count_maximal_executions`](Explorer::count_maximal_executions),
/// [`count_reachable_states`](Explorer::count_reachable_states)) are
/// defined over the *full* interleaving set and always ignore the
/// reduction.
///
/// # Example
///
/// ```
/// use transafety_traces::{Action, Loc, ThreadId, Trace, Traceset, Value};
/// use transafety_interleaving::Explorer;
/// let x = Loc::normal(0);
/// let mut t = Traceset::new();
/// t.insert(Trace::from_actions([
///     Action::start(ThreadId::new(0)),
///     Action::write(x, Value::new(1)),
/// ]))?;
/// t.insert(Trace::from_actions([
///     Action::start(ThreadId::new(1)),
///     Action::read(x, Value::new(1)),
/// ]))?;
/// let explorer = Explorer::new(&t);
/// assert!(!explorer.is_data_race_free()); // unsynchronised W/R on x
/// # Ok::<(), transafety_traces::TraceError>(())
/// ```
#[derive(Debug)]
pub struct Explorer {
    trie: IndexedTraceset,
    por: bool,
    footprint: Footprint,
    space: StateSpace,
}

/// The *suffix* footprint of one trie node: what the owning thread may
/// still do on any path below the node. The **dynamic** partial-order
/// reduction derives independence from the footprints of the *other*
/// threads' current nodes — an access to a location no other thread can
/// ever touch *again* commutes with every future move of every other
/// thread, even if that location was contended earlier in the run.
#[derive(Debug, Default, Clone)]
struct NodeFootprint {
    /// Locations some path below the node still writes.
    writes: BTreeSet<Loc>,
    /// Locations some path below the node still reads or writes.
    accesses: BTreeSet<Loc>,
    /// Monitors some path below the node still locks or unlocks.
    monitors: BTreeSet<Monitor>,
    /// Does some path below the node still emit an external action?
    externals: bool,
}

impl NodeFootprint {
    fn absorb(&mut self, other: &NodeFootprint) {
        self.writes.extend(other.writes.iter().copied());
        self.accesses.extend(other.accesses.iter().copied());
        self.monitors.extend(other.monitors.iter().copied());
        self.externals |= other.externals;
    }
}

/// Per-node suffix footprints for the whole trie, computed bottom-up at
/// construction (the trie is a tree, so one post-order pass suffices).
#[derive(Debug, Default)]
struct Footprint {
    /// Indexed by trie node id.
    nodes: Vec<NodeFootprint>,
    /// Per thread index: the footprint of the subtree under the
    /// thread's root `Start` edge. A thread whose cursor is still at
    /// `ROOT` has its whole trace ahead of it, and `nodes[ROOT]` would
    /// wrongly aggregate every thread's subtree.
    roots: Vec<NodeFootprint>,
}

impl Footprint {
    fn of(trie: &IndexedTraceset) -> Footprint {
        let mut nodes = vec![NodeFootprint::default(); trie.node_count()];
        // Pre-order push, reverse for post-order: children before
        // parents (each node has one parent in a trie).
        let mut order = Vec::with_capacity(trie.node_count());
        let mut stack = vec![IndexedTraceset::ROOT];
        while let Some(n) = stack.pop() {
            order.push(n);
            for (_, next) in trie.edges(n) {
                stack.push(next);
            }
        }
        for &n in order.iter().rev() {
            let mut fp = NodeFootprint::default();
            for (a, next) in trie.edges(n) {
                match *a {
                    Action::Read { loc, .. } => {
                        fp.accesses.insert(loc);
                    }
                    Action::Write { loc, .. } => {
                        fp.accesses.insert(loc);
                        fp.writes.insert(loc);
                    }
                    Action::Lock(m) | Action::Unlock(m) => {
                        fp.monitors.insert(m);
                    }
                    Action::External(_) => fp.externals = true,
                    Action::Start(_) => {}
                }
                fp.absorb(&nodes[next]);
            }
            nodes[n] = fp;
        }
        let roots = trie
            .threads()
            .iter()
            .map(|tid| {
                trie.edges(IndexedTraceset::ROOT)
                    .find_map(|(a, next)| match *a {
                        Action::Start(entry) if entry == *tid => Some(nodes[next].clone()),
                        _ => None,
                    })
                    .unwrap_or_default()
            })
            .collect();
        Footprint { nodes, roots }
    }

    /// The future footprint of thread `k` whose cursor sits at `node`.
    fn future(&self, k: usize, node: usize) -> &NodeFootprint {
        if node == IndexedTraceset::ROOT {
            &self.roots[k]
        } else {
            &self.nodes[node]
        }
    }
}

/// The pre-computed dense index space of a traceset: the sorted
/// location and monitor universes, fixing the layout of the compact
/// state word buffer:
///
/// ```text
/// [ cursor_0 .. cursor_{T-1} | mem_0 .. mem_{L-1} | (holder+1, depth) x M ]
/// ```
///
/// Cursors are trie node ids; memory holds one raw [`Value`] word per
/// location (absent-means-zero, exactly the read-default rule); each
/// monitor gets a `holder + 1` word (`0` = free) and a nesting-depth
/// word. The all-zero buffer is the initial state.
#[derive(Debug)]
struct StateSpace {
    threads: usize,
    /// Sorted location universe; a location's dense id is its index.
    locs: Vec<Loc>,
    /// Sorted monitor universe.
    monitors: Vec<Monitor>,
}

impl StateSpace {
    fn of(trie: &IndexedTraceset) -> StateSpace {
        let mut locs = BTreeSet::new();
        let mut monitors = BTreeSet::new();
        for node in 0..trie.node_count() {
            for (a, _) in trie.edges(node) {
                match *a {
                    Action::Read { loc, .. } | Action::Write { loc, .. } => {
                        locs.insert(loc);
                    }
                    Action::Lock(m) | Action::Unlock(m) => {
                        monitors.insert(m);
                    }
                    _ => {}
                }
            }
        }
        assert!(
            u32::try_from(trie.node_count()).is_ok(),
            "trie too large for packed cursors"
        );
        StateSpace {
            threads: trie.threads().len(),
            locs: locs.into_iter().collect(),
            monitors: monitors.into_iter().collect(),
        }
    }

    fn words(&self) -> usize {
        self.threads + self.locs.len() + 2 * self.monitors.len()
    }

    /// The word index of a location's memory cell.
    fn loc_slot(&self, loc: Loc) -> usize {
        self.threads
            + self
                .locs
                .binary_search(&loc)
                .expect("location in the traceset universe")
    }

    /// The word index of a monitor's holder word (depth is the next
    /// word).
    fn monitor_slot(&self, m: Monitor) -> usize {
        self.threads
            + self.locs.len()
            + 2 * self
                .monitors
                .binary_search(&m)
                .expect("monitor in the traceset universe")
    }

    fn mem(&self, state: &State, loc: Loc) -> Value {
        Value::new(state.words[self.loc_slot(loc)])
    }
}

/// The explorer's machine state in the compact word-buffer encoding
/// (layout fixed by [`StateSpace`]); equality is a word-wise compare and
/// hashing runs [`FxHasher`](crate::intern::FxHasher) over the words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    words: Box<[u32]>,
}

/// The uncompressed reference representation of a machine state, kept
/// for the pre-interning reference engine and the encode/decode audits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RefState {
    cursors: Vec<usize>,
    memory: BTreeMap<Loc, Value>,
    locks: BTreeMap<Monitor, (usize, u32)>,
}

/// A single enabled move: thread index, the action, and the successor
/// trie node for that thread.
#[derive(Debug, Clone, Copy)]
struct Move {
    thread: usize,
    action: Action,
    next_node: usize,
}

/// The previous normal access of the race search, as
/// `(thread, location, was_write)`.
type Prev = Option<(usize, Loc, bool)>;

/// On a race detected through a *carried* `prev`, the events pushed
/// after `prev`'s (interposed ample moves) sit between the racing pair.
/// Commute them out of the way: the racing thread's interposed moves
/// slide before the earlier access (they are independent of it — an
/// interposed move conflicting with the tracked access would itself
/// have been reported as the race), every other thread's slide after
/// the pair and are dropped as unexecuted trailing work (executions are
/// prefix-closed). The caller then pushes the racing event, leaving the
/// §3 adjacent conflicting pair as the last two events of a valid
/// execution. `prev_at` is the path length right after the tracked
/// access's event was pushed; a no-op when nothing was interposed.
fn reorder_carried_witness(
    path: &mut Vec<Event>,
    prev_at: usize,
    racing: transafety_traces::ThreadId,
) {
    if path.len() <= prev_at {
        return; // nothing interposed: the pair is already adjacent
    }
    let mut tail: Vec<Event> = path.drain(prev_at - 1..).collect();
    let earlier = tail.remove(0);
    path.extend(tail.into_iter().filter(|e| e.thread() == racing));
    path.push(earlier);
}

impl Explorer {
    /// Creates an explorer for the given traceset (with partial-order
    /// reduction enabled; see [`por`](Explorer::por)).
    #[must_use]
    pub fn new(t: &Traceset) -> Self {
        let trie = IndexedTraceset::new(t);
        let footprint = Footprint::of(&trie);
        let space = StateSpace::of(&trie);
        Explorer {
            trie,
            por: true,
            footprint,
            space,
        }
    }

    /// Enables or disables the happens-before partial-order reduction
    /// for the behaviour and race entry points (default: enabled). Both
    /// settings compute the same behaviours and the same racy/DRF
    /// verdict; disabling only matters for cross-validating the
    /// reduction or measuring the full state space.
    #[must_use]
    pub fn por(mut self, enabled: bool) -> Self {
        self.por = enabled;
        self
    }

    /// The all-zero word buffer: every cursor at `ROOT` (node 0), every
    /// memory cell at the default zero, every lock free.
    fn initial_state(&self) -> State {
        State {
            words: vec![0u32; self.space.words()].into_boxed_slice(),
        }
    }

    /// Enabled moves at `state`, in deterministic order, appended to the
    /// caller's (cleared) scratch buffer.
    fn moves_into(&self, state: &State, out: &mut Vec<Move>) {
        out.clear();
        for k in 0..self.space.threads {
            let node = state.words[k] as usize;
            for (a, next) in self.trie.edges(node) {
                let enabled = match *a {
                    Action::Start(entry) => {
                        node == IndexedTraceset::ROOT && entry == self.trie.threads()[k]
                    }
                    Action::Read { loc, value } => self.space.mem(state, loc) == value,
                    Action::Write { .. } | Action::External(_) => true,
                    Action::Lock(m) => {
                        let holder = state.words[self.space.monitor_slot(m)];
                        holder == 0 || holder as usize == k + 1
                    }
                    Action::Unlock(m) => {
                        let s = self.space.monitor_slot(m);
                        state.words[s] as usize == k + 1 && state.words[s + 1] > 0
                    }
                };
                if enabled {
                    out.push(Move {
                        thread: k,
                        action: *a,
                        next_node: next,
                    });
                }
            }
        }
    }

    /// Allocating form of [`moves_into`](Explorer::moves_into), for the
    /// encode/decode audit.
    fn moves_vec(&self, state: &State) -> Vec<Move> {
        let mut out = Vec::new();
        self.moves_into(state, &mut out);
        out
    }

    /// Is `a`, performed by thread `k`, **dynamically invisible**:
    /// guaranteed to neither synchronise nor conflict (§3) with any
    /// action any *other* thread can still perform from this state on,
    /// and unobservable relative to the other threads' remaining
    /// behaviour?
    ///
    /// Invisible actions commute with every other-thread future move,
    /// their enabledness is stable under other-thread moves, and they
    /// can never be the *earlier* endpoint of a data race going forward
    /// — the facts the ample-set reduction in
    /// [`por_moves_into`](Explorer::por_moves_into) rests on. (They
    /// *can* race with a past access of another thread, which is why
    /// the race search checks every ample move against its last-access
    /// tracker before carrying it through — see
    /// [`race_dfs`](Explorer::race_dfs).)
    ///
    /// `cursor(j)` is thread `j`'s current trie node; the judgment is a
    /// pure function of the state's cursors, so memoisation stays exact.
    fn invisible_with<F: Fn(usize) -> usize>(&self, cursor: F, k: usize, a: &Action) -> bool {
        let others = |pred: &dyn Fn(&NodeFootprint) -> bool| {
            (0..self.space.threads).all(|j| j == k || !pred(self.footprint.future(j, cursor(j))))
        };
        match *a {
            // Thread starts only advance the starting thread's cursor.
            Action::Start(_) => true,
            // A non-volatile read of a location no other thread will
            // ever write again: the value it sees cannot change under
            // it, and it conflicts with nothing ahead.
            Action::Read { loc, .. } => {
                !loc.is_volatile() && others(&|fp| fp.writes.contains(&loc))
            }
            // A non-volatile write to a location no other thread will
            // ever touch again: invisible to every future read.
            Action::Write { loc, .. } => {
                !loc.is_volatile() && others(&|fp| fp.accesses.contains(&loc))
            }
            // Lock/Unlock of a monitor no other thread will ever use
            // again: the acquisition can neither block nor order
            // anything ahead.
            Action::Lock(m) | Action::Unlock(m) => others(&|fp| fp.monitors.contains(&m)),
            // An external is observable, but its position relative to
            // *silent* moves is not: if no other thread will ever emit
            // an external again, the output order is fixed by program
            // order alone.
            Action::External(_) => others(&|fp| fp.externals),
        }
    }

    /// [`invisible_with`](Explorer::invisible_with) over a compact
    /// state's cursor words.
    fn invisible(&self, state: &State, k: usize, a: &Action) -> bool {
        self.invisible_with(|j| state.words[j] as usize, k, a)
    }

    /// The reduced move set at `state`, written into the caller's
    /// scratch buffer: the ample set of the dynamic happens-before
    /// partial-order reduction, or all enabled moves when no reduction
    /// applies (or POR is disabled).
    ///
    /// Selection rule: the lowest-indexed thread whose *every* trie
    /// edge at its current node — enabled or not — is dynamically
    /// [`invisible`](Explorer::invisible) against the other threads'
    /// *remaining* suffix footprints, and that has at least one enabled
    /// move, becomes the ample thread; only its moves are explored.
    /// Checking all edges (not just enabled ones) matters: a disabled
    /// read edge of a still-shared location could become enabled after
    /// another thread's write, so only a thread whose entire next-step
    /// alternative set commutes with the rest of the run may be
    /// prioritised. The choice is a pure function of the state, so
    /// memoisation stays exact.
    ///
    /// Every explorer move strictly advances a trie cursor, so the
    /// state graph is a DAG and the classic ample-set cycle proviso
    /// holds vacuously; soundness is argued in `docs/paper-mapping.md`.
    /// The returned [`ExpansionKind`] feeds the observability layer
    /// (ample hits vs. full expansions).
    fn por_moves_into(&self, state: &State, out: &mut Vec<Move>) -> ExpansionKind {
        self.moves_into(state, out);
        if !self.por {
            return ExpansionKind::Full;
        }
        for k in 0..self.space.threads {
            let node = state.words[k] as usize;
            let mut edges = self.trie.edges(node).peekable();
            if edges.peek().is_none() {
                continue; // thread finished
            }
            if !edges.all(|(a, _)| self.invisible(state, k, a)) {
                continue;
            }
            if out.iter().any(|mv| mv.thread == k) {
                out.retain(|mv| mv.thread == k);
                return ExpansionKind::Ample;
            }
        }
        ExpansionKind::Full
    }

    /// Applies a move: clone the parent's word buffer and patch the
    /// affected words in place (no tree rebuilds, no per-entry
    /// allocation).
    fn apply(&self, state: &State, mv: &Move) -> State {
        let mut words = state.words.clone();
        words[mv.thread] = u32::try_from(mv.next_node).expect("packed cursor");
        match mv.action {
            Action::Write { loc, value } => {
                words[self.space.loc_slot(loc)] = value.get();
            }
            Action::Lock(m) => {
                let s = self.space.monitor_slot(m);
                if words[s] == 0 {
                    words[s] = mv.thread as u32 + 1;
                }
                words[s + 1] += 1;
            }
            Action::Unlock(m) => {
                let s = self.space.monitor_slot(m);
                words[s + 1] -= 1;
                if words[s + 1] == 0 {
                    words[s] = 0;
                }
            }
            _ => {}
        }
        State { words }
    }

    /// The set of behaviours of all executions of the traceset.
    ///
    /// Computed by memoised dynamic programming: the suffix-behaviour set
    /// of a state is the union over enabled moves. Because executions are
    /// prefix closed, the empty behaviour is always a member.
    #[must_use]
    pub fn behaviours(&self) -> Behaviours {
        self.behaviours_governed(&BudgetGuard::unlimited())
    }

    /// [`behaviours`](Explorer::behaviours) under a budget: the memoised
    /// recursion checks `guard` cooperatively at every state visit; once
    /// the guard trips, unexplored suffixes contribute only the empty
    /// behaviour (the result is an under-approximation and the guard's
    /// trip reason records why).
    #[must_use]
    pub fn behaviours_governed(&self, guard: &BudgetGuard) -> Behaviours {
        let metrics = guard.metrics();
        let _span = metrics.span(Phase::BehaviourEval);
        let tally = CounterTally::new(metrics);
        let mut interner: StateInterner<State> = StateInterner::new();
        let mut memo: IdMap<Arc<Behaviours>> = IdMap::new();
        let mut scratch: ScratchPool<Move> = ScratchPool::new();
        let init = self.initial_state();
        let (id, _) = interner.intern_ref(&init);
        let result = self.suffixes(
            init,
            id,
            &mut interner,
            &mut memo,
            &mut scratch,
            guard,
            &tally,
        );
        drop(tally);
        if metrics.is_enabled() {
            let stats = interner.probe_stats();
            metrics.record_intern(stats);
            // The interner is the phase's dedup structure: one key per
            // distinct state admitted (dedup *hits* are counted at the
            // memo-hit site in `suffixes`, not here, so revisit edges
            // are not double-counted).
            metrics.add(Counter::StatesInterned, stats.keys);
        }
        (*result).clone()
    }

    #[allow(clippy::too_many_arguments)]
    fn suffixes(
        &self,
        state: State,
        id: u32,
        interner: &mut StateInterner<State>,
        memo: &mut IdMap<Arc<Behaviours>>,
        scratch: &mut ScratchPool<Move>,
        guard: &BudgetGuard,
        tally: &CounterTally<'_>,
    ) -> Arc<Behaviours> {
        if let Some(r) = memo.get(id) {
            tally.bump(Counter::StatesDeduped);
            return Arc::clone(r);
        }
        let mut set: Behaviours = BTreeSet::new();
        set.insert(Vec::new());
        if guard.should_stop() {
            // Partial result: not memoised, so an (impossible) later
            // revisit cannot launder it as the state's exact value.
            return Arc::new(set);
        }
        guard.note_state_tallied(tally);
        let mut buf = scratch.take();
        let kind = self.por_moves_into(&state, &mut buf);
        tally.expansion(buf.len(), kind);
        for &mv in buf.iter() {
            let succ = self.apply(&state, &mv);
            let (succ_id, _) = interner.intern_ref(&succ);
            let tail = self.suffixes(succ, succ_id, interner, memo, scratch, guard, tally);
            match mv.action {
                Action::External(v) => {
                    for suffix in tail.iter() {
                        let mut b = Vec::with_capacity(suffix.len() + 1);
                        b.push(v);
                        b.extend_from_slice(suffix);
                        set.insert(b);
                    }
                }
                _ => set.extend(tail.iter().cloned()),
            }
        }
        scratch.put(buf);
        let rc = Arc::new(set);
        memo.insert(id, Arc::clone(&rc));
        rc
    }

    /// Searches for a data race (§3: two adjacent conflicting actions of
    /// different threads in some execution). Returns a concrete witness
    /// execution, or `None` if the traceset is data race free.
    #[must_use]
    pub fn race_witness(&self) -> Option<RaceWitness> {
        self.race_witness_governed(&BudgetGuard::unlimited())
    }

    /// [`race_witness`](Explorer::race_witness) under a budget: the
    /// search checks `guard` at every state visit, so `None` from a
    /// tripped guard means "no race found within budget" (the guard's
    /// trip reason distinguishes that from a proof).
    #[must_use]
    pub fn race_witness_governed(&self, guard: &BudgetGuard) -> Option<RaceWitness> {
        let metrics = guard.metrics();
        let _span = metrics.span(Phase::RaceSearch);
        // Visited key: interned state id plus the previous normal access.
        let mut interner: StateInterner<State> = StateInterner::new();
        let mut visited: FxHashSet<(u32, Prev)> = FxHashSet::default();
        let mut scratch: ScratchPool<Move> = ScratchPool::new();
        let mut path: Vec<Event> = Vec::new();
        let tally = CounterTally::new(metrics);
        let racy = self.race_dfs(
            self.initial_state(),
            None,
            0,
            &mut interner,
            &mut visited,
            &mut path,
            &mut scratch,
            guard,
            &tally,
        );
        drop(tally);
        if metrics.is_enabled() {
            metrics.record_intern(interner.probe_stats());
            // The (state, previous-access) visited set is this phase's
            // dedup structure; the interner only compresses its keys.
            metrics.add(Counter::StatesInterned, visited.len() as u64);
        }
        racy.then(|| RaceWitness {
            execution: Interleaving::from_events(path),
        })
    }

    /// DFS of the reduced transition system for an adjacent conflicting
    /// pair. `prev` is the last *recorded* normal access and `prev_at`
    /// the path length right after its event was pushed.
    ///
    /// Check-before-carry: when the expansion at a state was ample, the
    /// ample moves are still race-checked against `prev` — a
    /// dynamically-invisible move can conflict with a *past* access of
    /// another thread — and, when no race fires, `prev` is carried
    /// through them **unchanged**. Overwriting it would mask an
    /// earlier-access/later-access pair straddling the ample run (the
    /// interposed invisible moves commute around the pair, so the race
    /// is genuine; [`reorder_carried_witness`] rebuilds the adjacent
    /// witness on detection).
    #[allow(clippy::too_many_arguments)]
    fn race_dfs(
        &self,
        state: State,
        prev: Prev,
        prev_at: usize,
        interner: &mut StateInterner<State>,
        visited: &mut FxHashSet<(u32, Prev)>,
        path: &mut Vec<Event>,
        scratch: &mut ScratchPool<Move>,
        guard: &BudgetGuard,
        tally: &CounterTally<'_>,
    ) -> bool {
        if guard.should_stop() {
            return false;
        }
        // Reference-first probe: the state is cloned into the arena only
        // when it is genuinely new.
        let (id, _) = interner.intern_ref(&state);
        if !visited.insert((id, prev)) {
            tally.bump(Counter::StatesDeduped);
            return false;
        }
        guard.note_state_tallied(tally);
        let mut buf = scratch.take();
        let kind = self.por_moves_into(&state, &mut buf);
        tally.expansion(buf.len(), kind);
        for &mv in buf.iter() {
            let thread_id = self.trie.threads()[mv.thread];
            // Race check against the last recorded access.
            if let Some((pk, pl, pw)) = prev {
                if pk != mv.thread && mv.action.is_access_to(pl) && !pl.is_volatile() {
                    let racing = pw || mv.action.is_write();
                    if racing {
                        reorder_carried_witness(path, prev_at, thread_id);
                        path.push(Event::new(thread_id, mv.action));
                        return true;
                    }
                }
            }
            let (next_prev, next_at) = if kind.is_ample() {
                if prev.is_some() {
                    tally.prev_carry();
                }
                (prev, prev_at)
            } else {
                match mv.action {
                    Action::Read { loc, .. } if !loc.is_volatile() => {
                        (Some((mv.thread, loc, false)), path.len() + 1)
                    }
                    Action::Write { loc, .. } if !loc.is_volatile() => {
                        (Some((mv.thread, loc, true)), path.len() + 1)
                    }
                    _ => (None, 0),
                }
            };
            path.push(Event::new(thread_id, mv.action));
            let succ = self.apply(&state, &mv);
            if self.race_dfs(
                succ, next_prev, next_at, interner, visited, path, scratch, guard, tally,
            ) {
                return true;
            }
            path.pop();
        }
        scratch.put(buf);
        false
    }

    /// Is the traceset data race free (§3)?
    #[must_use]
    pub fn is_data_race_free(&self) -> bool {
        self.race_witness().is_none()
    }

    /// Enumerates all maximal executions, stopping at
    /// `limits.max_interleavings`. Exponential; intended for litmus-sized
    /// programs.
    #[must_use]
    pub fn maximal_executions(&self, limits: ExploreLimits) -> Vec<Interleaving> {
        self.maximal_executions_checked(limits).0
    }

    /// Like [`maximal_executions`](Explorer::maximal_executions), but
    /// also reports whether the `max_interleavings` cap cut the
    /// enumeration short (`true` = at least one maximal execution was
    /// *not* materialised). Callers that must not silently truncate —
    /// the `drfcheck` CLI, for instance — use this form.
    #[must_use]
    pub fn maximal_executions_checked(&self, limits: ExploreLimits) -> (Vec<Interleaving>, bool) {
        self.maximal_executions_governed(limits, &BudgetGuard::unlimited())
    }

    /// [`maximal_executions_checked`](Explorer::maximal_executions_checked)
    /// under a budget: the enumeration also stops when `guard` trips (a
    /// deadline or external cancellation), and a cap hit is recorded on
    /// the guard as an interleaving-bound truncation. The `bool` is
    /// `true` whenever at least one maximal execution was dropped, for
    /// either reason.
    #[must_use]
    pub fn maximal_executions_governed(
        &self,
        limits: ExploreLimits,
        guard: &BudgetGuard,
    ) -> (Vec<Interleaving>, bool) {
        let mut out = Vec::new();
        let mut path = Vec::new();
        let mut scratch: ScratchPool<Move> = ScratchPool::new();
        let mut capped = false;
        let tally = CounterTally::new(guard.metrics());
        self.enumerate(
            self.initial_state(),
            &mut path,
            &mut out,
            limits.max_interleavings,
            &mut capped,
            &mut scratch,
            guard,
            &tally,
        );
        (out, capped)
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate(
        &self,
        state: State,
        path: &mut Vec<Event>,
        out: &mut Vec<Interleaving>,
        cap: usize,
        capped: &mut bool,
        scratch: &mut ScratchPool<Move>,
        guard: &BudgetGuard,
        tally: &CounterTally<'_>,
    ) {
        if out.len() >= cap {
            // Every pending branch extends to at least one maximal
            // execution, so entering here means results were dropped.
            *capped = true;
            guard.trip_interleaving_cap();
            return;
        }
        if guard.should_stop() {
            *capped = true;
            return;
        }
        guard.note_state_tallied(tally);
        let mut buf = scratch.take();
        self.moves_into(&state, &mut buf);
        tally.expansion(buf.len(), ExpansionKind::Full);
        if buf.is_empty() {
            out.push(Interleaving::from_events(path.iter().copied()));
            scratch.put(buf);
            return;
        }
        for &mv in buf.iter() {
            path.push(Event::new(self.trie.threads()[mv.thread], mv.action));
            let succ = self.apply(&state, &mv);
            self.enumerate(succ, path, out, cap, capped, scratch, guard, tally);
            path.pop();
        }
        scratch.put(buf);
    }

    /// Counts the maximal executions by dynamic programming (no
    /// materialisation). Counts the *full* interleaving set — the
    /// partial-order reduction never applies here. Saturates at
    /// `u128::MAX`; use
    /// [`count_maximal_executions_checked`](Explorer::count_maximal_executions_checked)
    /// to observe saturation.
    #[must_use]
    pub fn count_maximal_executions(&self) -> u128 {
        self.count_maximal_executions_checked().0
    }

    /// Like [`count_maximal_executions`](Explorer::count_maximal_executions),
    /// but also reports whether the count overflowed `u128` and was
    /// clamped to `u128::MAX` (possible on adversarial generated
    /// programs; the flag keeps the clamp from reading as an exact
    /// count).
    #[must_use]
    pub fn count_maximal_executions_checked(&self) -> (u128, bool) {
        let mut interner: StateInterner<State> = StateInterner::new();
        let mut memo: IdMap<u128> = IdMap::new();
        let mut scratch: ScratchPool<Move> = ScratchPool::new();
        let mut saturated = false;
        let init = self.initial_state();
        let (id, _) = interner.intern_ref(&init);
        let c = self.count(
            init,
            id,
            &mut interner,
            &mut memo,
            &mut scratch,
            &mut saturated,
        );
        (c, saturated)
    }

    #[allow(clippy::too_many_arguments)]
    fn count(
        &self,
        state: State,
        id: u32,
        interner: &mut StateInterner<State>,
        memo: &mut IdMap<u128>,
        scratch: &mut ScratchPool<Move>,
        saturated: &mut bool,
    ) -> u128 {
        if let Some(&c) = memo.get(id) {
            return c;
        }
        let mut buf = scratch.take();
        self.moves_into(&state, &mut buf);
        let c = if buf.is_empty() {
            1
        } else {
            let mut acc: u128 = 0;
            for &mv in buf.iter() {
                let succ = self.apply(&state, &mv);
                let (succ_id, _) = interner.intern_ref(&succ);
                let tail = self.count(succ, succ_id, interner, memo, scratch, saturated);
                acc = acc.checked_add(tail).unwrap_or_else(|| {
                    *saturated = true;
                    u128::MAX
                });
            }
            acc
        };
        scratch.put(buf);
        memo.insert(id, c);
        c
    }

    /// Is the traceset data race free under the *alternative* §3
    /// definition: in every execution, all conflicting access pairs are
    /// ordered by happens-before?
    ///
    /// The paper states the two definitions are equivalent; this method
    /// exists so the equivalence is checkable (see the integration
    /// suite) and costs a full enumeration of maximal executions —
    /// prefer [`is_data_race_free`](Explorer::is_data_race_free) (the
    /// adjacent-conflict search) for real use.
    #[must_use]
    pub fn is_data_race_free_hb(&self, limits: ExploreLimits) -> bool {
        self.maximal_executions(limits)
            .iter()
            .all(|i| i.hb_unordered_conflicts().is_empty())
    }

    /// The number of distinct explorer states reachable from the initial
    /// state (a size measure used by the scaling experiments). Always a
    /// census of the *full* transition system, regardless of the
    /// partial-order-reduction setting.
    #[must_use]
    pub fn count_reachable_states(&self) -> usize {
        // The interner *is* the visited set: dedup by id, count by arena
        // length, expand by borrowing the arena copy back out.
        let mut interner: StateInterner<State> = StateInterner::new();
        let mut scratch: ScratchPool<Move> = ScratchPool::new();
        let (root, _) = interner.intern(self.initial_state());
        let mut stack = vec![root];
        let mut buf = scratch.take();
        while let Some(id) = stack.pop() {
            let state = interner.get(id).clone();
            self.moves_into(&state, &mut buf);
            for mv in buf.iter() {
                let succ = self.apply(&state, mv);
                let (sid, fresh) = interner.intern(succ);
                if fresh {
                    stack.push(sid);
                }
            }
        }
        interner.len()
    }

    // -----------------------------------------------------------------
    // Pre-interning reference engine and the encode/decode audit
    // -----------------------------------------------------------------

    /// [`behaviours`](Explorer::behaviours) on the **pre-interning
    /// reference engine**: the uncompressed `BTreeMap` state
    /// representation with SipHash-keyed memo tables, exactly as the
    /// engine worked before the compact encoding landed. Kept for
    /// differential testing and the E17 before/after benchmark; the
    /// production entry points never use it.
    #[must_use]
    pub fn behaviours_reference_governed(&self, guard: &BudgetGuard) -> Behaviours {
        let mut memo: HashMap<RefState, Arc<Behaviours>> = HashMap::new();
        let result = self.ref_suffixes(self.ref_initial_state(), &mut memo, guard);
        (*result).clone()
    }

    /// [`race_witness`](Explorer::race_witness) on the pre-interning
    /// reference engine (see
    /// [`behaviours_reference_governed`](Explorer::behaviours_reference_governed)).
    #[must_use]
    pub fn race_witness_reference_governed(&self, guard: &BudgetGuard) -> Option<RaceWitness> {
        let mut visited: HashSet<(RefState, Prev)> = HashSet::new();
        let mut path: Vec<Event> = Vec::new();
        self.ref_race_dfs(
            self.ref_initial_state(),
            None,
            0,
            &mut visited,
            &mut path,
            guard,
        )
        .then(|| RaceWitness {
            execution: Interleaving::from_events(path),
        })
    }

    fn ref_initial_state(&self) -> RefState {
        RefState {
            cursors: vec![IndexedTraceset::ROOT; self.space.threads],
            memory: BTreeMap::new(),
            locks: BTreeMap::new(),
        }
    }

    fn ref_moves(&self, state: &RefState) -> Vec<Move> {
        let mut out = Vec::new();
        for (k, &node) in state.cursors.iter().enumerate() {
            for (a, next) in self.trie.edges(node) {
                let enabled = match *a {
                    Action::Start(entry) => {
                        node == IndexedTraceset::ROOT && entry == self.trie.threads()[k]
                    }
                    Action::Read { loc, value } => {
                        state.memory.get(&loc).copied().unwrap_or(Value::ZERO) == value
                    }
                    Action::Write { .. } | Action::External(_) => true,
                    Action::Lock(m) => match state.locks.get(&m) {
                        None => true,
                        Some(&(holder, _)) => holder == k,
                    },
                    Action::Unlock(m) => {
                        matches!(state.locks.get(&m), Some(&(holder, depth)) if holder == k && depth > 0)
                    }
                };
                if enabled {
                    out.push(Move {
                        thread: k,
                        action: *a,
                        next_node: next,
                    });
                }
            }
        }
        out
    }

    /// The reference engine's mirror of
    /// [`por_moves_into`](Explorer::por_moves_into): identical dynamic
    /// selection over the uncompressed state, plus the ample flag for
    /// the reference race search's check-before-carry.
    fn ref_por_moves(&self, state: &RefState) -> (Vec<Move>, bool) {
        let moves = self.ref_moves(state);
        if !self.por {
            return (moves, false);
        }
        for (k, &node) in state.cursors.iter().enumerate() {
            let mut edges = self.trie.edges(node).peekable();
            if edges.peek().is_none() {
                continue;
            }
            if !edges.all(|(a, _)| self.invisible_with(|j| state.cursors[j], k, a)) {
                continue;
            }
            let ample: Vec<Move> = moves.iter().filter(|mv| mv.thread == k).copied().collect();
            if !ample.is_empty() {
                return (ample, true);
            }
        }
        (moves, false)
    }

    fn ref_apply(&self, state: &RefState, mv: &Move) -> RefState {
        let mut next = state.clone();
        next.cursors[mv.thread] = mv.next_node;
        match mv.action {
            Action::Write { loc, value } => {
                next.memory.insert(loc, value);
            }
            Action::Lock(m) => {
                let entry = next.locks.entry(m).or_insert((mv.thread, 0));
                entry.1 += 1;
            }
            Action::Unlock(m) => {
                if let Some(entry) = next.locks.get_mut(&m) {
                    entry.1 -= 1;
                    if entry.1 == 0 {
                        next.locks.remove(&m);
                    }
                }
            }
            _ => {}
        }
        next
    }

    fn ref_suffixes(
        &self,
        state: RefState,
        memo: &mut HashMap<RefState, Arc<Behaviours>>,
        guard: &BudgetGuard,
    ) -> Arc<Behaviours> {
        if let Some(r) = memo.get(&state) {
            return Arc::clone(r);
        }
        let mut set: Behaviours = BTreeSet::new();
        set.insert(Vec::new());
        if guard.should_stop() {
            return Arc::new(set);
        }
        guard.note_state();
        for mv in self.ref_por_moves(&state).0 {
            let tail = self.ref_suffixes(self.ref_apply(&state, &mv), memo, guard);
            match mv.action {
                Action::External(v) => {
                    for suffix in tail.iter() {
                        let mut b = Vec::with_capacity(suffix.len() + 1);
                        b.push(v);
                        b.extend_from_slice(suffix);
                        set.insert(b);
                    }
                }
                _ => set.extend(tail.iter().cloned()),
            }
        }
        let rc = Arc::new(set);
        memo.insert(state, Arc::clone(&rc));
        rc
    }

    fn ref_race_dfs(
        &self,
        state: RefState,
        prev: Prev,
        prev_at: usize,
        visited: &mut HashSet<(RefState, Prev)>,
        path: &mut Vec<Event>,
        guard: &BudgetGuard,
    ) -> bool {
        if guard.should_stop() || !visited.insert((state.clone(), prev)) {
            return false;
        }
        guard.note_state();
        let (moves, ample) = self.ref_por_moves(&state);
        for mv in moves {
            let thread_id = self.trie.threads()[mv.thread];
            if let Some((pk, pl, pw)) = prev {
                if pk != mv.thread && mv.action.is_access_to(pl) && !pl.is_volatile() {
                    let racing = pw || mv.action.is_write();
                    if racing {
                        reorder_carried_witness(path, prev_at, thread_id);
                        path.push(Event::new(thread_id, mv.action));
                        return true;
                    }
                }
            }
            // Check-before-carry (mirrors `race_dfs`).
            let (next_prev, next_at) = if ample {
                (prev, prev_at)
            } else {
                match mv.action {
                    Action::Read { loc, .. } if !loc.is_volatile() => {
                        (Some((mv.thread, loc, false)), path.len() + 1)
                    }
                    Action::Write { loc, .. } if !loc.is_volatile() => {
                        (Some((mv.thread, loc, true)), path.len() + 1)
                    }
                    _ => (None, 0),
                }
            };
            path.push(Event::new(thread_id, mv.action));
            if self.ref_race_dfs(
                self.ref_apply(&state, &mv),
                next_prev,
                next_at,
                visited,
                path,
                guard,
            ) {
                return true;
            }
            path.pop();
        }
        false
    }

    /// Encodes a reference state into the compact word buffer.
    fn encode_ref(&self, state: &RefState) -> State {
        let mut words = vec![0u32; self.space.words()].into_boxed_slice();
        for (k, &node) in state.cursors.iter().enumerate() {
            words[k] = u32::try_from(node).expect("packed cursor");
        }
        for (&loc, &v) in &state.memory {
            words[self.space.loc_slot(loc)] = v.get();
        }
        for (&m, &(holder, depth)) in &state.locks {
            let s = self.space.monitor_slot(m);
            words[s] = holder as u32 + 1;
            words[s + 1] = depth;
        }
        State { words }
    }

    /// Decodes a compact state back into the reference representation,
    /// using the trie parent map to recover which locations have been
    /// written (the trie is a tree, so a cursor determines its thread's
    /// entire action history — presence in the reference memory map is a
    /// function of the cursors).
    fn decode(&self, state: &State, parent: &[Option<(usize, Action)>]) -> RefState {
        let mut memory = BTreeMap::new();
        let mut cursors = Vec::with_capacity(self.space.threads);
        for k in 0..self.space.threads {
            let mut node = state.words[k] as usize;
            cursors.push(node);
            while let Some((p, a)) = parent[node] {
                if let Action::Write { loc, .. } = a {
                    memory.insert(loc, self.space.mem(state, loc));
                }
                node = p;
            }
        }
        let mut locks = BTreeMap::new();
        for &m in &self.space.monitors {
            let s = self.space.monitor_slot(m);
            if state.words[s] != 0 {
                locks.insert(m, (state.words[s] as usize - 1, state.words[s + 1]));
            }
        }
        RefState {
            cursors,
            memory,
            locks,
        }
    }

    /// The trie parent map: `parent[node] = (parent node, edge action)`.
    fn parent_map(&self) -> Vec<Option<(usize, Action)>> {
        let mut parent = vec![None; self.trie.node_count()];
        for node in 0..self.trie.node_count() {
            for (a, next) in self.trie.edges(node) {
                parent[next] = Some((node, *a));
            }
        }
        parent
    }

    /// Self-audit of the compact encoding: walks the full (unreduced)
    /// reachable state space in lockstep on the compact and reference
    /// representations, checking that encode→decode round-trips on every
    /// state and that interned-id equality coincides with structural
    /// reference-state equality. `max_states` caps the walk (flagged in
    /// [`InternAudit::capped`]). Test support for the property suite.
    #[doc(hidden)]
    #[must_use]
    pub fn audit_intern(&self, max_states: usize) -> InternAudit {
        let parent = self.parent_map();
        let mut interner: StateInterner<State> = StateInterner::new();
        let mut rmap: HashMap<RefState, u32> = HashMap::new();
        let mut stack: Vec<(State, RefState)> =
            vec![(self.initial_state(), self.ref_initial_state())];
        let mut audit = InternAudit {
            states: 0,
            roundtrips: true,
            bijective: true,
            capped: false,
        };
        while let Some((cs, rs)) = stack.pop() {
            let (cid, fresh) = interner.intern_ref(&cs);
            let ref_fresh = !rmap.contains_key(&rs);
            if fresh != ref_fresh {
                // One side thinks the state is new and the other does
                // not: the encoding conflated or split states.
                audit.bijective = false;
            }
            if !ref_fresh {
                if rmap[&rs] != cid {
                    audit.bijective = false;
                }
                continue;
            }
            rmap.insert(rs.clone(), cid);
            if !fresh {
                continue;
            }
            audit.states += 1;
            if self.encode_ref(&rs) != cs || self.decode(&cs, &parent) != rs {
                audit.roundtrips = false;
            }
            if audit.states >= max_states {
                audit.capped = true;
                break;
            }
            let cmoves = self.moves_vec(&cs);
            let rmoves = self.ref_moves(&rs);
            let agree = cmoves.len() == rmoves.len()
                && cmoves.iter().zip(&rmoves).all(|(a, b)| {
                    a.thread == b.thread && a.action == b.action && a.next_node == b.next_node
                });
            if !agree {
                audit.bijective = false;
                continue;
            }
            for mv in cmoves {
                stack.push((self.apply(&cs, &mv), self.ref_apply(&rs, &mv)));
            }
        }
        audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_traces::{Domain, ThreadId, Trace};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn v(n: u32) -> Value {
        Value::new(n)
    }

    /// Fig. 2 original: T0 = r2:=x; y:=r2 — T1 = r1:=y; x:=1; print r1.
    fn fig2_original() -> Traceset {
        let (x, y) = (Loc::normal(0), Loc::normal(1));
        let d = Domain::zero_to(1);
        let mut ts = Traceset::new();
        for val in d.iter() {
            ts.insert(Trace::from_actions([
                Action::start(t(0)),
                Action::read(x, val),
                Action::write(y, val),
            ]))
            .unwrap();
            ts.insert(Trace::from_actions([
                Action::start(t(1)),
                Action::read(y, val),
                Action::write(x, v(1)),
                Action::external(val),
            ]))
            .unwrap();
        }
        ts
    }

    /// Fig. 2 transformed: T1 becomes x:=1; r1:=y; print r1.
    fn fig2_transformed() -> Traceset {
        let (x, y) = (Loc::normal(0), Loc::normal(1));
        let d = Domain::zero_to(1);
        let mut ts = Traceset::new();
        for val in d.iter() {
            ts.insert(Trace::from_actions([
                Action::start(t(0)),
                Action::read(x, val),
                Action::write(y, val),
            ]))
            .unwrap();
            ts.insert(Trace::from_actions([
                Action::start(t(1)),
                Action::write(x, v(1)),
                Action::read(y, val),
                Action::external(val),
            ]))
            .unwrap();
        }
        ts
    }

    #[test]
    fn fig2_original_cannot_print_one() {
        let b = Explorer::new(&fig2_original()).behaviours();
        assert!(b.contains(&vec![]));
        assert!(b.contains(&vec![v(0)]));
        assert!(
            !b.contains(&vec![v(1)]),
            "§2.1: the original cannot print 1"
        );
    }

    #[test]
    fn fig2_transformed_can_print_one() {
        let b = Explorer::new(&fig2_transformed()).behaviours();
        assert!(
            b.contains(&vec![v(1)]),
            "§2.1: the transformed program can print 1"
        );
    }

    #[test]
    fn fig2_is_racy() {
        let w = Explorer::new(&fig2_original())
            .race_witness()
            .expect("x and y are racy");
        let (a, b) = w.pair();
        assert!(a.action().conflicts_with(&b.action()));
        assert_ne!(a.thread(), b.thread());
        // the witness execution really is an execution of the traceset
        assert!(w.execution.is_interleaving_of(&fig2_original()));
        assert!(w.execution.is_sequentially_consistent());
    }

    #[test]
    fn lock_protected_program_is_drf() {
        let x = Loc::normal(0);
        let m = Monitor::new(0);
        let mut ts = Traceset::new();
        for th in [t(0), t(1)] {
            for val in Domain::zero_to(1).iter() {
                ts.insert(Trace::from_actions([
                    Action::start(th),
                    Action::lock(m),
                    Action::read(x, val),
                    Action::write(x, v(1)),
                    Action::unlock(m),
                ]))
                .unwrap();
            }
        }
        assert!(Explorer::new(&ts).is_data_race_free());
    }

    #[test]
    fn volatile_program_is_drf() {
        let vl = Loc::volatile(0);
        let mut ts = Traceset::new();
        for val in Domain::zero_to(1).iter() {
            ts.insert(Trace::from_actions([
                Action::start(t(0)),
                Action::write(vl, v(1)),
            ]))
            .unwrap();
            ts.insert(Trace::from_actions([
                Action::start(t(1)),
                Action::read(vl, val),
                Action::external(val),
            ]))
            .unwrap();
        }
        let e = Explorer::new(&ts);
        assert!(e.is_data_race_free());
        let b = e.behaviours();
        assert!(b.contains(&vec![v(0)]) && b.contains(&vec![v(1)]));
    }

    #[test]
    fn maximal_executions_cross_validate_behaviours() {
        let ts = fig2_original();
        let ex = Explorer::new(&ts);
        let all = ex.maximal_executions(ExploreLimits::default());
        assert_eq!(all.len() as u128, ex.count_maximal_executions());
        // behaviours from raw enumeration (with prefix closure) match DP
        let mut raw: Behaviours = BTreeSet::new();
        for i in &all {
            let b = i.behaviour();
            for n in 0..=b.len() {
                raw.insert(b[..n].to_vec());
            }
            assert!(i.is_sequentially_consistent());
            assert!(i.is_interleaving_of(&ts));
        }
        assert_eq!(raw, ex.behaviours());
    }

    #[test]
    fn locks_exclude_interleavings() {
        // Two threads, each: lock m; x:=1; r:=x; unlock m. Under mutual
        // exclusion every read must see 1 from its own thread.
        let x = Loc::normal(0);
        let m = Monitor::new(0);
        let mut ts = Traceset::new();
        for th in [t(0), t(1)] {
            for val in Domain::zero_to(1).iter() {
                ts.insert(Trace::from_actions([
                    Action::start(th),
                    Action::lock(m),
                    Action::write(x, v(1)),
                    Action::read(x, val),
                    Action::external(val),
                    Action::unlock(m),
                ]))
                .unwrap();
            }
        }
        let b = Explorer::new(&ts).behaviours();
        assert!(b.contains(&vec![v(1), v(1)]));
        assert!(
            !b.contains(&vec![v(0)]),
            "read under the lock must see the write"
        );
    }

    #[test]
    fn reentrant_locking_is_supported_by_state_machine() {
        let m = Monitor::new(0);
        let mut ts = Traceset::new();
        ts.insert(Trace::from_actions([
            Action::start(t(0)),
            Action::lock(m),
            Action::lock(m),
            Action::unlock(m),
            Action::unlock(m),
            Action::external(v(1)),
        ]))
        .unwrap();
        let b = Explorer::new(&ts).behaviours();
        assert!(b.contains(&vec![v(1)]));
    }

    #[test]
    fn execution_count_small_example() {
        // Two independent single-action threads after their starts:
        // S(0);X(1) and S(1);X(2) — executions = interleavings of 4 events
        // with per-thread order fixed: C(4,2) = 6.
        let mut ts = Traceset::new();
        ts.insert(Trace::from_actions([
            Action::start(t(0)),
            Action::external(v(1)),
        ]))
        .unwrap();
        ts.insert(Trace::from_actions([
            Action::start(t(1)),
            Action::external(v(2)),
        ]))
        .unwrap();
        let ex = Explorer::new(&ts);
        assert_eq!(ex.count_maximal_executions(), 6);
        assert_eq!(ex.maximal_executions(ExploreLimits::default()).len(), 6);
        let b = ex.behaviours();
        assert!(b.contains(&vec![v(1), v(2)]));
        assert!(b.contains(&vec![v(2), v(1)]));
    }

    #[test]
    fn hb_definition_agrees_with_adjacent_definition() {
        assert!(!Explorer::new(&fig2_original()).is_data_race_free_hb(ExploreLimits::default()));
        let vl = Loc::volatile(0);
        let mut ts = Traceset::new();
        ts.insert(Trace::from_actions([
            Action::start(t(0)),
            Action::write(vl, v(1)),
        ]))
        .unwrap();
        for val in Domain::zero_to(1).iter() {
            ts.insert(Trace::from_actions([
                Action::start(t(1)),
                Action::read(vl, val),
            ]))
            .unwrap();
        }
        let e = Explorer::new(&ts);
        assert!(e.is_data_race_free());
        assert!(e.is_data_race_free_hb(ExploreLimits::default()));
    }

    #[test]
    fn execution_cap_is_respected() {
        let ts = fig2_original();
        let ex = Explorer::new(&ts);
        let capped = ex.maximal_executions(ExploreLimits {
            max_interleavings: 3,
        });
        assert_eq!(capped.len(), 3);
    }

    #[test]
    fn race_witness_reports_index_and_pair() {
        let w = Explorer::new(&fig2_original()).race_witness().unwrap();
        assert_eq!(w.index(), w.execution.len() - 2);
        let s = w.to_string();
        assert!(s.contains("data race between"), "{s}");
    }

    #[test]
    fn reachable_state_count_is_positive() {
        let ts = fig2_original();
        assert!(Explorer::new(&ts).count_reachable_states() > 1);
    }

    /// Two threads whose bodies are entirely thread-private writes plus
    /// one shared, lock-protected store: heavy commutativity, so the
    /// reduction should visit far fewer states.
    fn private_work_traceset() -> Traceset {
        let m = Monitor::new(0);
        let shared = Loc::normal(100);
        let mut ts = Traceset::new();
        for (k, th) in [t(0), t(1)].into_iter().enumerate() {
            let a = Loc::normal(k as u32 * 10);
            let b = Loc::normal(k as u32 * 10 + 1);
            ts.insert(Trace::from_actions([
                Action::start(th),
                Action::write(a, v(1)),
                Action::write(b, v(2)),
                Action::read(a, v(1)),
                Action::write(a, v(3)),
                Action::lock(m),
                Action::write(shared, v(k as u32)),
                Action::unlock(m),
            ]))
            .unwrap();
        }
        ts
    }

    #[test]
    fn por_agrees_with_full_engine_on_small_corpus() {
        for ts in [fig2_original(), fig2_transformed(), private_work_traceset()] {
            let reduced = Explorer::new(&ts);
            let full = Explorer::new(&ts).por(false);
            assert_eq!(reduced.behaviours(), full.behaviours());
            assert_eq!(
                reduced.race_witness().is_some(),
                full.race_witness().is_some()
            );
        }
    }

    /// Regression: a race whose two accesses straddle a run of
    /// ample-reduced private work. T0 writes `x` then retires into
    /// private writes; T1 reads `x` then retires into private writes.
    /// Whichever access goes first, the accessing thread's remainder is
    /// dynamically invisible and gets selected as the ample set — so a
    /// race search that *overwrites* its last-access tracker with the
    /// ample moves masks the pair on every reduced path and wrongly
    /// proves DRF. Check-before-carry keeps the tracker alive through
    /// the ample run.
    fn straddling_race_traceset() -> Traceset {
        let x = Loc::normal(0);
        let a = Loc::normal(1);
        let b = Loc::normal(2);
        let mut ts = Traceset::new();
        ts.insert(Trace::from_actions([
            Action::start(t(0)),
            Action::write(x, v(1)),
            Action::write(a, v(1)),
        ]))
        .unwrap();
        for val in Domain::zero_to(1).iter() {
            ts.insert(Trace::from_actions([
                Action::start(t(1)),
                Action::read(x, val),
                Action::write(b, v(1)),
            ]))
            .unwrap();
        }
        ts
    }

    #[test]
    fn race_straddling_ample_private_work_is_found() {
        let ts = straddling_race_traceset();
        let full = Explorer::new(&ts).por(false);
        assert!(full.race_witness().is_some(), "x is racy unreduced");
        let reduced = Explorer::new(&ts);
        let w = reduced
            .race_witness()
            .expect("the reduced search must find the straddling race");
        // The witness stays a well-formed adjacent-pair execution even
        // when the pair was detected through a carried tracker.
        let (a, b) = w.pair();
        assert!(a.action().conflicts_with(&b.action()), "{w}");
        assert_ne!(a.thread(), b.thread());
        assert!(w.execution.is_interleaving_of(&ts));
        assert!(w.execution.is_sequentially_consistent());
    }

    /// Dynamic invisibility keeps reducing after contention retires.
    /// T0 = write p, then 6× write q; T1 = write q, then 6× write p:
    /// every location is touched by both threads, so a *static*
    /// whole-trace footprint never finds anything invisible and the old
    /// reduction degenerated to full expansion everywhere. The suffix
    /// footprints see that once both heads have executed, neither tail
    /// can ever be observed by the other thread again, and collapse the
    /// tails' interleaving grid into one chain.
    #[test]
    fn dynamic_footprints_reduce_after_contention_retires() {
        use crate::budget::{Budget, CancelToken};
        let p = Loc::normal(0);
        let q = Loc::normal(1);
        let mut ts = Traceset::new();
        let mut t0 = vec![Action::start(t(0)), Action::write(p, v(1))];
        t0.extend(std::iter::repeat_n(Action::write(q, v(2)), 6));
        ts.insert(Trace::from_actions(t0)).unwrap();
        let mut t1 = vec![Action::start(t(1)), Action::write(q, v(1))];
        t1.extend(std::iter::repeat_n(Action::write(p, v(2)), 6));
        ts.insert(Trace::from_actions(t1)).unwrap();
        let states_of = |por: bool| {
            let guard = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
            let _ = Explorer::new(&ts).por(por).behaviours_governed(&guard);
            guard.states()
        };
        let (reduced, full) = (states_of(true), states_of(false));
        assert!(
            reduced < full,
            "dynamic POR explored {reduced} vs {full} unreduced states — the \
             retired-contention tails must collapse"
        );
        assert_eq!(
            Explorer::new(&ts).behaviours(),
            Explorer::new(&ts).por(false).behaviours()
        );
        // Both locations stay racy (unsynchronised cross-thread writes),
        // and the reduced search must agree.
        assert_eq!(
            Explorer::new(&ts).race_witness().is_some(),
            Explorer::new(&ts).por(false).race_witness().is_some()
        );
    }

    #[test]
    fn por_explores_fewer_states_on_independent_work() {
        use crate::budget::{Budget, CancelToken};
        let ts = private_work_traceset();
        let states_of = |por: bool| {
            let guard = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
            let _ = Explorer::new(&ts).por(por).behaviours_governed(&guard);
            guard.states()
        };
        let (reduced, full) = (states_of(true), states_of(false));
        assert!(
            reduced * 2 <= full,
            "POR explored {reduced} states vs {full} unreduced — expected \
             at least a 2x reduction on thread-private work"
        );
    }

    #[test]
    fn por_does_not_change_counts_or_census() {
        let ts = private_work_traceset();
        let reduced = Explorer::new(&ts);
        let full = Explorer::new(&ts).por(false);
        assert_eq!(
            reduced.count_maximal_executions(),
            full.count_maximal_executions()
        );
        assert_eq!(
            reduced.count_reachable_states(),
            full.count_reachable_states()
        );
        assert_eq!(
            reduced.maximal_executions(ExploreLimits::default()).len(),
            full.maximal_executions(ExploreLimits::default()).len()
        );
    }

    #[test]
    fn counts_do_not_report_saturation_on_small_programs() {
        let ex = Explorer::new(&fig2_original());
        let (c, saturated) = ex.count_maximal_executions_checked();
        assert!(c > 0 && !saturated);
    }

    /// Two threads of 67 private single-value writes each: the state
    /// space is a small 69x69 cursor grid, but the interleaving count is
    /// C(136, 68) > u128::MAX — so the id-keyed count memo must clamp
    /// and flag, exactly as the map-keyed memo did before interning.
    fn overflow_traceset() -> Traceset {
        let mut ts = Traceset::new();
        for (k, th) in [t(0), t(1)].into_iter().enumerate() {
            let loc = Loc::normal(k as u32);
            let mut actions = vec![Action::start(th)];
            actions.extend(std::iter::repeat_n(Action::write(loc, v(1)), 67));
            ts.insert(Trace::from_actions(actions)).unwrap();
        }
        ts
    }

    #[test]
    fn count_saturation_flag_survives_id_keyed_memos() {
        let ex = Explorer::new(&overflow_traceset());
        let (c, saturated) = ex.count_maximal_executions_checked();
        assert_eq!(c, u128::MAX, "the count must clamp, not wrap");
        assert!(saturated, "saturation must be flagged");
    }

    #[test]
    fn compact_encoding_audits_clean_on_small_corpus() {
        for ts in [fig2_original(), fig2_transformed(), private_work_traceset()] {
            let audit = Explorer::new(&ts).audit_intern(100_000);
            assert!(audit.states > 1);
            assert!(audit.roundtrips, "encode/decode must round-trip");
            assert!(audit.bijective, "ids must match structural equality");
            assert!(!audit.capped);
        }
    }

    #[test]
    fn interned_engine_matches_reference_engine_exactly() {
        use crate::budget::{Budget, CancelToken};
        for ts in [fig2_original(), fig2_transformed(), private_work_traceset()] {
            for por in [true, false] {
                let ex = Explorer::new(&ts).por(por);
                let g_new = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
                let g_ref = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
                assert_eq!(
                    ex.behaviours_governed(&g_new),
                    ex.behaviours_reference_governed(&g_ref),
                    "behaviours must be bit-identical (por={por})"
                );
                assert_eq!(
                    g_new.states(),
                    g_ref.states(),
                    "the compact engine must visit exactly the same states (por={por})"
                );
                assert_eq!(
                    ex.race_witness_governed(&BudgetGuard::unlimited()),
                    ex.race_witness_reference_governed(&BudgetGuard::unlimited()),
                    "race witnesses must be identical (por={por})"
                );
            }
        }
    }
}
