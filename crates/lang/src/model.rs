//! The pluggable memory-model backend API.
//!
//! The paper's development is carried out under the interleaving (SC)
//! semantics. §8 observes that hardware models (TSO, and conjecturally
//! PSO) are SC plus store buffers, and that they are *explained by* SC
//! plus a fragment of the paper's transformations — which makes
//! cross-model exploration a first-class need: the same checker
//! machinery must be able to run a program under SC, TSO or PSO and
//! compare the verdicts.
//!
//! A [`MemoryModel`] supplies only the memory layer of a machine: its
//! states, the configuration slot of each thread, the value a thread
//! reads, the monitor holders, which stores each thread has buffered,
//! the enabled buffer flushes, and how a move changes a state. The
//! threads are the same under every model: each steps through the
//! configuration table of the program's SC explorer
//! ([`MemoryModel::explorer`]). SC is the degenerate machine whose store
//! buffers are always empty: nothing is buffered, every thread is
//! drained, and no flush is ever enabled.
//!
//! Everything else is one generic implementation in [`ModelExplorer`],
//! which no backend overrides: the move generator with its fence rule,
//! the partial-order reduction and the await stutter collapse, the fuel
//! policy, the lift of an SC race witness to a buffered schedule, and
//! the governed engines over them — memoised behaviour extraction, the
//! adjacent-conflict race search and the reachable-state census — with
//! the same budget checks, state interning and `ExploreMetrics`
//! accounting for every model. The `*_par_governed` entry points are
//! shims over the same sequential engines (see
//! [`ModelExplorer::behaviours_par_governed`]).
//!
//! # Partial-order reduction
//!
//! One reduction serves every model. It picks a singleton ample set, or
//! keeps the full expansion:
//!
//! 1. **Commuting flush** ([`ExpansionKind::AmpleFlush`]): a flush by
//!    thread `k` of location `l` when no other thread has `l` in its
//!    remaining-code footprint or in its own buffer. Store-to-load
//!    forwarding makes the drain invisible to `k`'s own reads, and the
//!    condition excludes every other observer, so the flush commutes
//!    with all concurrently reachable moves; it strictly shrinks a
//!    buffer, so it can never close a cycle.
//! 2. **Invisible act** ([`ExpansionKind::Ample`]): the lowest-indexed
//!    thread whose move is *dynamically invisible* — guaranteed, by the
//!    suffix footprints of the other threads' remaining code and by
//!    their buffers, to neither synchronise nor conflict with anything
//!    another thread can still do — and passes the ast-size cycle
//!    proviso. A non-volatile write is invisible when the machine
//!    buffers it or no other thread accesses its location; a read
//!    forwarded from the reader's own buffer is not invisible on that
//!    ground alone (the C1 argument is at the predicate).
//!
//! Every ample move strictly decreases the measure
//! `Σ 2·ast_size + Σ buffered stores` (a start move fires at most once
//! per thread), so no cycle of the reduced graph is ample-only and the
//! ignoring problem cannot arise: the reduction is sound on
//! loop-bearing programs. Under SC the race search is reduced with the
//! same ample sets: there are no flushes, so the race-goal witness
//! argument (check-before-carry plus reorder) holds for the ample sets
//! that preserve behaviours. On a buffered machine the race search gets
//! the full expansion: the adjacent-conflict witness argument needs the
//! tracked access and the racing access to be separated only by moves
//! that never touch their location, and an ample flush of that very
//! location would change the read values (and can enable or disable the
//! fence actions) of the reordered witness.
//!
//! That unreduced, fuel-bounded buffered race search is the oracle; the
//! checker answers the race question under every model with the SC
//! search and lifts its witness ([`ModelExplorer::lift_sc_witness`]).
//! The census never reduces: it counts *all* reachable states by
//! definition.

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use transafety_interleaving::intern::{FxHashMap, FxHashSet, StateInterner};
use transafety_interleaving::metrics::{Counter, CounterTally, ExpansionKind, Phase};
use transafety_interleaving::{Behaviours, BudgetGuard, Event, Interleaving, RaceWitness};
use transafety_traces::{Action, Loc, MemoryModelKind, Monitor, ThreadId, Value};

use crate::explore::{
    Bounded, CState, CfgId, CfgMeta, Configs, ExploreOptions, ProgramExplorer, ThreadMove,
};

/// The label of a machine transition: a program action, or an internal
/// store-buffer flush that performs no action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveLabel {
    /// The move performs this program action.
    Action(Action),
    /// The move drains one buffered store to memory — of the given
    /// location for per-location buffers (PSO), or the oldest store of
    /// a FIFO buffer (`None`, TSO). Flushes emit nothing, consume no
    /// action fuel, and are invisible to the race predicate (the racing
    /// access is the buffered write's program action).
    Flush(Option<Loc>),
}

impl MoveLabel {
    /// The program action this move performs, if any.
    #[must_use]
    pub fn action(&self) -> Option<Action> {
        match self {
            MoveLabel::Action(a) => Some(*a),
            MoveLabel::Flush(_) => None,
        }
    }

    /// Is this an internal buffer flush?
    #[must_use]
    pub fn is_flush(&self) -> bool {
        matches!(self, MoveLabel::Flush(_))
    }
}

impl fmt::Display for MoveLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveLabel::Action(a) => write!(f, "{a}"),
            MoveLabel::Flush(Some(loc)) => write!(f, "flush {loc}"),
            MoveLabel::Flush(None) => write!(f, "flush"),
        }
    }
}

/// One enabled transition of a memory-model machine: the moving thread,
/// the label, and the complete successor state.
#[derive(Debug, Clone)]
pub struct ModelMove<S> {
    /// Index of the thread that moves (flushes belong to the buffering
    /// thread).
    pub thread: usize,
    /// What the move does.
    pub label: MoveLabel,
    /// The machine state after the move.
    pub next: S,
}

/// One enabled move of a machine, before it is applied: a thread's
/// start or action, or the drain of one buffered store.
#[derive(Debug, Clone, Copy)]
pub enum MachineMove {
    /// A thread starts, or performs an action (a read already resolved
    /// to the value [`MemoryModel::read_value`] gave it).
    Act(ThreadMove),
    /// A buffered store of `thread` to `loc` drains to memory (under
    /// TSO, the oldest one of its FIFO buffer).
    Flush {
        /// The buffering thread.
        thread: usize,
        /// The location the drained store writes.
        loc: Loc,
    },
}

/// The property an engine is computing when it reduces a move set.
/// Soundness of a reduction depends on the goal: a reduction that
/// preserves the behaviour set need not preserve the adjacent-conflict
/// race witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ReductionGoal {
    /// The engine collects external-action behaviours. A reduction must
    /// preserve the set of observable output sequences.
    Behaviours,
    /// The engine runs the adjacent-conflict race search. A reduction
    /// must additionally keep every racing pair detectable through the
    /// last-access tracker and witness-reorderable into adjacency —
    /// under a buffered machine this forbids dropping or interposing
    /// flushes around the tracked access, so those get the full
    /// expansion.
    Races,
}

/// A reduced move set: the moves, the [`ExpansionKind`] describing what
/// the partial-order reduction did, and the await stutter-collapse
/// tallies of the behaviour goal (see [`ExploreOptions::awaits`]). The
/// collapse runs after the reduction: `kind` describes the ample-set
/// choice only, and a state whose self-loop reads were dropped still
/// reports the kind the reduction selected.
struct Reduced<S> {
    moves: Vec<ModelMove<S>>,
    kind: ExpansionKind,
    await_collapsed: u64,
    await_wakeups: u64,
}

/// A memory model as the exploration engines see it: the memory layer
/// of a machine whose threads step through the program's configuration
/// table. The generic [`ModelExplorer`] builds the moves, the reduction,
/// the fuel policy and the engines from these answers alone.
///
/// "Buffered" means [`kind`](MemoryModel::kind) is not
/// [`MemoryModelKind::Sc`]. An SC backend answers that nothing is
/// buffered, every thread is drained and no flush is enabled.
///
/// Implementations must be deterministic: equal states must give equal
/// answers (the engines memoise and deduplicate on state identity), and
/// [`flushes`](MemoryModel::flushes) must list the flushes in an order
/// that is a pure function of the state (it fixes the exploration and
/// witness order).
pub trait MemoryModel {
    /// The machine state.
    type State: Clone + Eq + Hash;

    /// Which model this is (recorded in reports and stats).
    fn kind(&self) -> MemoryModelKind;

    /// The SC explorer of the program this model explores. Its
    /// configuration table holds every thread configuration the
    /// machine stores, and its race search answers the race question
    /// under every model (see
    /// [`lift_sc_witness`](ModelExplorer::lift_sc_witness)), so the
    /// phases of one analysis intern each configuration once.
    fn explorer(&self) -> &ProgramExplorer<'_>;

    /// The initial machine state (no thread started, memory zeroed,
    /// buffers empty).
    fn initial(&self) -> Self::State;

    /// The configuration slot of thread `k`: its id in the explorer's
    /// configuration table, or [`NOT_STARTED`](crate::NOT_STARTED).
    fn cfg(&self, state: &Self::State, k: usize) -> CfgId;

    /// The value thread `k` reads from `loc`: its youngest buffered
    /// store to `loc`, else shared memory.
    fn read_value(&self, state: &Self::State, k: usize, loc: Loc) -> Value;

    /// The thread holding monitor `m`, if any.
    fn holder(&self, state: &Self::State, m: Monitor) -> Option<usize>;

    /// Does thread `k` have a buffered store to `loc`?
    fn has_buffered(&self, state: &Self::State, k: usize, loc: Loc) -> bool;

    /// Are all of thread `k`'s buffers empty?
    fn drained(&self, state: &Self::State, k: usize) -> bool;

    /// Every enabled flush, in deterministic order.
    fn flushes(&self, state: &Self::State) -> Vec<MachineMove>;

    /// The label of a flush of `loc`. Per-location buffers name the
    /// location (the default); a FIFO buffer drains "the oldest store"
    /// (`MoveLabel::Flush(None)`).
    fn flush_label(&self, loc: Loc) -> MoveLabel {
        MoveLabel::Flush(Some(loc))
    }

    /// The state after `mv`. A non-volatile write enters the writer's
    /// buffer on a buffered machine and memory under SC; volatile
    /// writes, locks and releasing unlocks take effect at once.
    fn apply(&self, state: &Self::State, mv: &MachineMove) -> Self::State;
}

/// The previous normal access of the race searches, as
/// `(thread, location, was_write)`.
type Prev = Option<(usize, Loc, bool)>;

/// Rebuilds an adjacent §3 witness when the race-carrying access was
/// detected across interposed ample moves: drains the tail of `path`
/// starting at the tracked access's event, re-appends only the racing
/// thread's interposed events (they precede its racing access in
/// program order and are independent of the tracked access — an ample
/// move conflicting with it would itself have been reported), then
/// re-appends the tracked access last. Every dropped event is trailing
/// work of some other thread, so the result is a prefix of a
/// Mazurkiewicz-equivalent execution. The caller pushes the racing
/// event after this returns. `prev_at` is the path length right after
/// the tracked access's event was pushed; a no-op when nothing was
/// interposed.
pub(crate) fn reorder_carried_witness(path: &mut Vec<Event>, prev_at: usize, racing: ThreadId) {
    if path.len() <= prev_at {
        return; // nothing interposed: the pair is already adjacent
    }
    let mut tail: Vec<Event> = path.drain(prev_at - 1..).collect();
    let earlier = tail.remove(0);
    path.extend(tail.into_iter().filter(|e| e.thread() == racing));
    path.push(earlier);
}

/// One step of a model execution schedule: which thread moved and what
/// the move did. Unlike an [`Interleaving`] (actions only), a schedule
/// records buffer flushes, so a TSO/PSO witness shows *when* each
/// buffered store drained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStep {
    /// The moving thread.
    pub thread: usize,
    /// What the move did.
    pub label: MoveLabel,
}

impl fmt::Display for ScheduleStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}: {}", self.thread, self.label)
    }
}

/// A race witness found under a memory model: the action-level
/// execution (the §3 adjacent-conflict pair is its last two conflicting
/// events) plus the full machine schedule including flushes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRaceWitness {
    /// The witnessing execution, as the interleaving of its actions.
    pub witness: RaceWitness,
    /// The machine schedule of the witness, flushes included. For SC
    /// this is the action sequence again; for TSO/PSO it shows the
    /// buffer/flush timing that produced the racy execution.
    pub schedule: Vec<ScheduleStep>,
}

/// The generic exploration engine over a [`MemoryModel`] backend: the
/// governed behaviour, race and census engines, shared by every model.
#[derive(Debug, Clone, Copy)]
pub struct ModelExplorer<'m, M> {
    model: &'m M,
}

impl<'m, M: MemoryModel> ModelExplorer<'m, M> {
    /// Creates an explorer over the model backend.
    #[must_use]
    pub fn new(model: &'m M) -> Self {
        ModelExplorer { model }
    }

    /// The backing model.
    #[must_use]
    pub fn model(&self) -> &'m M {
        self.model
    }

    /// [`behaviours_governed`](ModelExplorer::behaviours_governed)
    /// without a budget.
    #[must_use]
    pub fn behaviours(&self, opts: &ExploreOptions) -> Bounded<Behaviours> {
        self.behaviours_governed(opts, &BudgetGuard::unlimited())
    }

    /// [`race_witness_governed`](ModelExplorer::race_witness_governed)
    /// without a budget.
    #[must_use]
    pub fn race_witness(&self, opts: &ExploreOptions) -> Option<ModelRaceWitness> {
        self.race_witness_governed(opts, &BudgetGuard::unlimited())
    }

    /// [`count_reachable_states_governed`](ModelExplorer::count_reachable_states_governed)
    /// without a budget.
    #[must_use]
    pub fn count_reachable_states(&self, opts: &ExploreOptions) -> usize {
        self.count_reachable_states_governed(opts, &BudgetGuard::unlimited())
    }

    /// The behaviours of the program's executions under the model, by
    /// the memoised suffix dynamic program; `guard` is checked
    /// cooperatively at every state visit.
    #[must_use]
    pub fn behaviours_governed(
        &self,
        opts: &ExploreOptions,
        guard: &BudgetGuard,
    ) -> Bounded<Behaviours> {
        let metrics = guard.metrics();
        let _span = metrics.span(Phase::BehaviourEval);
        let tally = CounterTally::new(metrics);
        let mut interner: StateInterner<M::State> = StateInterner::new();
        let mut memo: FxHashMap<(u32, usize), Arc<Behaviours>> = FxHashMap::default();
        let mut truncated = false;
        let fuel = self.fuel(opts);
        let init = self.model.initial();
        let (id, _) = interner.intern_ref(&init);
        let set = self.suffixes(
            id,
            fuel,
            init,
            opts,
            &mut interner,
            &mut memo,
            &mut truncated,
            guard,
            &tally,
        );
        drop(tally);
        if truncated {
            guard.trip_action_bound();
        }
        if metrics.is_enabled() {
            metrics.record_intern(interner.probe_stats());
            // The memo is the phase's dedup structure — keyed `(state
            // id, fuel)`, so loopy programs revisiting a state at a
            // different fuel count each layer once (dedup *hits* are
            // counted at the memo-hit site in `suffixes`).
            metrics.add(Counter::StatesInterned, memo.len() as u64);
        }
        Bounded {
            value: (*set).clone(),
            complete: !truncated,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn suffixes(
        &self,
        id: u32,
        fuel: usize,
        state: M::State,
        opts: &ExploreOptions,
        interner: &mut StateInterner<M::State>,
        memo: &mut FxHashMap<(u32, usize), Arc<Behaviours>>,
        truncated: &mut bool,
        guard: &BudgetGuard,
        tally: &CounterTally<'_>,
    ) -> Arc<Behaviours> {
        if let Some(r) = memo.get(&(id, fuel)) {
            tally.bump(Counter::StatesDeduped);
            return Arc::clone(r);
        }
        let mut set = Behaviours::new();
        set.insert(Vec::new());
        if guard.should_stop() {
            // Partial result: not memoised, so it cannot be reused as
            // the state's exact suffix set.
            *truncated = true;
            return Arc::new(set);
        }
        guard.note_state_tallied(tally);
        let red = self.reduced_moves(&state, ReductionGoal::Behaviours, opts, truncated);
        tally.expansion(red.moves.len(), red.kind);
        tally.add(Counter::AwaitCollapsed, red.await_collapsed);
        tally.add(Counter::AwaitWakeups, red.await_wakeups);
        let moves = red.moves;
        drop(state);
        if fuel == 0 && moves.iter().any(|m| !m.label.is_flush()) {
            // Out of action fuel with an action pending: the set is
            // under-approximated. Flush-only suffixes contribute no
            // behaviour, so nothing below is followed.
            *truncated = true;
        } else {
            // At fuel 0 only flushes are left. They are free, and they
            // are still followed: a commuting-flush singleton can hide
            // the action moves waiting behind it.
            for mv in moves {
                // Flushes are free: they consume no action fuel
                // (otherwise long buffers would starve the bound), but
                // they strictly shrink a buffer so the recursion is
                // well-founded.
                let next_fuel = if mv.label.is_flush() || fuel == usize::MAX {
                    fuel
                } else {
                    fuel - 1
                };
                let (sid, _) = interner.intern_ref(&mv.next);
                let tail = self.suffixes(
                    sid, next_fuel, mv.next, opts, interner, memo, truncated, guard, tally,
                );
                if let MoveLabel::Action(Action::External(v)) = mv.label {
                    for suffix in tail.iter() {
                        let mut b = Vec::with_capacity(suffix.len() + 1);
                        b.push(v);
                        b.extend_from_slice(suffix);
                        set.insert(b);
                    }
                } else {
                    set.extend(tail.iter().cloned());
                }
            }
        }
        let rc = Arc::new(set);
        memo.insert((id, fuel), Arc::clone(&rc));
        rc
    }

    /// [`behaviours_governed`](ModelExplorer::behaviours_governed)
    /// under the parallel entry point's signature. It runs the
    /// sequential engine at every `jobs`, so a jobs-N report and its
    /// stats equal the jobs-1 ones.
    ///
    /// No verdict phase runs in parallel: on a 2-vCPU host the
    /// work-stealing pool (since deleted) lost to this engine at every
    /// size measured,
    /// because every expansion takes one per-program mutex and the
    /// workers serialise. Summed over the 723 drfbench `check-large`
    /// ops, behaviours plus races took 1,731 ms sequentially against
    /// 2,725 ms on two pool workers; a 570,526-state SC program took
    /// 0.98 s against 1.29–1.41 s. The three `*_par_governed` shims
    /// stay only because the benchmark's traced replay
    /// (`drfbench/src/ops.rs`) calls them.
    #[must_use]
    pub fn behaviours_par_governed(
        &self,
        opts: &ExploreOptions,
        _jobs: usize,
        guard: &BudgetGuard,
    ) -> Bounded<Behaviours> {
        self.behaviours_governed(opts, guard)
    }

    /// Searches for a data race: the §3 adjacent-conflict condition,
    /// evaluated over the model's executions. Flush moves carry the
    /// previous access through unchanged — the racing access is the
    /// write's program action, not its drain. `guard` is checked at
    /// every newly visited search node; with a tripped guard a `None`
    /// is not a proof of freedom (callers consult the trip reason).
    ///
    /// Incompleteness from the model's
    /// [`search_fuel`](ModelExplorer::search_fuel) bound is **not**
    /// recorded: a subtree pruned at fuel 0 leaves the guard untripped.
    /// Under a fuel-bounded model (TSO/PSO on a loop-bearing program) a
    /// `None` is therefore no proof of freedom, and a run of the
    /// behaviour engine on the same guard need not trip the action
    /// bound on the subtrees pruned here. The checker's
    /// `Analysis` answers the race question with the exact SC search
    /// instead (see [`ModelExplorer::lift_sc_witness`]); this buffered
    /// search stays public as the test oracle of that equivalence.
    #[must_use]
    pub fn race_witness_governed(
        &self,
        opts: &ExploreOptions,
        guard: &BudgetGuard,
    ) -> Option<ModelRaceWitness> {
        let metrics = guard.metrics();
        let _span = metrics.span(Phase::RaceSearch);
        let tally = CounterTally::new(metrics);
        let mut interner: StateInterner<M::State> = StateInterner::new();
        let mut visited: FxHashSet<(u32, Prev, usize)> = FxHashSet::default();
        let mut path = Vec::new();
        let mut schedule = Vec::new();
        let mut truncated = false;
        let racy = self.race_dfs(
            self.model.initial(),
            None,
            0,
            0,
            self.search_fuel(opts),
            opts,
            &mut interner,
            &mut visited,
            &mut path,
            &mut schedule,
            &mut truncated,
            guard,
            &tally,
        );
        drop(tally);
        if metrics.is_enabled() {
            metrics.record_intern(interner.probe_stats());
            // The `(state id, last-access, fuel)` visited set is the
            // phase's dedup structure (dedup hits counted at the
            // insert-miss site in `race_dfs`).
            metrics.add(Counter::StatesInterned, visited.len() as u64);
        }
        racy.then(|| ModelRaceWitness {
            witness: RaceWitness {
                execution: Interleaving::from_events(path),
            },
            schedule,
        })
    }

    /// Check-before-carry (see `ProgramExplorer::ref_race_dfs` and the
    /// interleaving crate's `race_dfs`): under an ample expansion the
    /// moves are still race-checked against `prev` — an invisible move
    /// can conflict with a *past* access — but `prev` is carried
    /// through them unchanged, and on detection
    /// [`reorder_carried_witness`] slides the interposed ample events
    /// out so the reported pair is adjacent. `prev_at`/`sched_at`
    /// record where `prev`'s event sits in `path`/`schedule`; they are
    /// witness bookkeeping only and not part of the visited key.
    #[allow(clippy::too_many_arguments)]
    fn race_dfs(
        &self,
        state: M::State,
        prev: Prev,
        prev_at: usize,
        sched_at: usize,
        fuel: usize,
        opts: &ExploreOptions,
        interner: &mut StateInterner<M::State>,
        visited: &mut FxHashSet<(u32, Prev, usize)>,
        path: &mut Vec<Event>,
        schedule: &mut Vec<ScheduleStep>,
        truncated: &mut bool,
        guard: &BudgetGuard,
        tally: &CounterTally<'_>,
    ) -> bool {
        if guard.should_stop() {
            return false;
        }
        // Reference-first probe: the state is cloned into the arena only
        // when it is genuinely new.
        let (id, _) = interner.intern_ref(&state);
        if !visited.insert((id, prev, fuel)) {
            tally.bump(Counter::StatesDeduped);
            return false;
        }
        guard.note_state_tallied(tally);
        let Reduced { moves, kind, .. } =
            self.reduced_moves(&state, ReductionGoal::Races, opts, truncated);
        tally.expansion(moves.len(), kind);
        drop(state);
        for mv in moves {
            let step = ScheduleStep {
                thread: mv.thread,
                label: mv.label,
            };
            let MoveLabel::Action(action) = mv.label else {
                // A flush: no access, no action fuel, prev unchanged.
                schedule.push(step);
                if self.race_dfs(
                    mv.next, prev, prev_at, sched_at, fuel, opts, interner, visited, path,
                    schedule, truncated, guard, tally,
                ) {
                    return true;
                }
                schedule.pop();
                continue;
            };
            if fuel == 0 {
                // Out of search fuel (buffered model on a loopy
                // program): the pruned subtree is covered by the
                // behaviour engine's matching action-bound trip.
                *truncated = true;
                continue;
            }
            let tid = ThreadId::new(mv.thread as u32);
            if let Some((pk, pl, pw)) = prev {
                if pk != mv.thread
                    && action.is_access_to(pl)
                    && !pl.is_volatile()
                    && (pw || action.is_write())
                {
                    if path.len() > prev_at {
                        // Ample action moves were interposed (only the
                        // SC reduction does this — race-goal buffered
                        // expansions are full, so their interpositions
                        // are flushes, which never enter `path`).
                        reorder_carried_witness(path, prev_at, tid);
                        let mut tail: Vec<ScheduleStep> = schedule.drain(sched_at - 1..).collect();
                        let earlier = tail.remove(0);
                        schedule.extend(
                            tail.into_iter()
                                .filter(|s| s.thread == mv.thread && !s.label.is_flush()),
                        );
                        schedule.push(earlier);
                    }
                    path.push(Event::new(tid, action));
                    schedule.push(step);
                    return true;
                }
            }
            let (next_prev, next_prev_at, next_sched_at) = if kind.is_ample() {
                if prev.is_some() {
                    tally.prev_carry();
                }
                (prev, prev_at, sched_at)
            } else {
                match action {
                    Action::Read { loc, .. } if !loc.is_volatile() => (
                        Some((mv.thread, loc, false)),
                        path.len() + 1,
                        schedule.len() + 1,
                    ),
                    Action::Write { loc, .. } if !loc.is_volatile() => (
                        Some((mv.thread, loc, true)),
                        path.len() + 1,
                        schedule.len() + 1,
                    ),
                    _ => (None, 0, 0),
                }
            };
            let next_fuel = if fuel == usize::MAX { fuel } else { fuel - 1 };
            path.push(Event::new(tid, action));
            schedule.push(step);
            if self.race_dfs(
                mv.next,
                next_prev,
                next_prev_at,
                next_sched_at,
                next_fuel,
                opts,
                interner,
                visited,
                path,
                schedule,
                truncated,
                guard,
                tally,
            ) {
                return true;
            }
            path.pop();
            schedule.pop();
        }
        false
    }

    /// [`race_witness_governed`](ModelExplorer::race_witness_governed)
    /// under the parallel entry point's signature. Runs sequentially at
    /// every `jobs`, like the other verdict phases (see
    /// [`behaviours_par_governed`](ModelExplorer::behaviours_par_governed)).
    #[must_use]
    pub fn race_witness_par_governed(
        &self,
        opts: &ExploreOptions,
        _jobs: usize,
        guard: &BudgetGuard,
    ) -> Option<ModelRaceWitness> {
        self.race_witness_governed(opts, guard)
    }

    /// The number of distinct machine states reachable under the
    /// bounds. On buffered models with loops the walk is additionally
    /// layered by [`search_fuel`](ModelExplorer::search_fuel) to
    /// terminate; the count is still of distinct *states* (the
    /// interner's arena), not of fuel layers.
    #[must_use]
    pub fn count_reachable_states_governed(
        &self,
        opts: &ExploreOptions,
        guard: &BudgetGuard,
    ) -> usize {
        // The interner *is* the distinct-state set: dedup by id, count
        // by arena length, expand by borrowing the arena copy back out.
        let metrics = guard.metrics();
        let _span = metrics.span(Phase::Census);
        let tally = CounterTally::new(metrics);
        let mut interner: StateInterner<M::State> = StateInterner::new();
        let mut visited: FxHashSet<(u32, usize)> = FxHashSet::default();
        let mut truncated = false;
        let fuel = self.search_fuel(opts);
        let (root, _) = interner.intern(self.model.initial());
        visited.insert((root, fuel));
        let mut stack = vec![(root, fuel)];
        while let Some((id, fuel)) = stack.pop() {
            if guard.should_stop() {
                break;
            }
            guard.note_state_tallied(&tally);
            let state = interner.get(id).clone();
            let moves = self.moves(&state, opts, &mut truncated);
            tally.expansion(moves.len(), ExpansionKind::Full);
            drop(state);
            for mv in moves {
                let next_fuel = if mv.label.is_flush() || fuel == usize::MAX {
                    fuel
                } else if fuel == 0 {
                    continue;
                } else {
                    fuel - 1
                };
                let (sid, _) = interner.intern(mv.next);
                if visited.insert((sid, next_fuel)) {
                    stack.push((sid, next_fuel));
                } else {
                    tally.bump(Counter::StatesDeduped);
                }
            }
        }
        drop(tally);
        if metrics.is_enabled() {
            metrics.record_intern(interner.probe_stats());
            // The `(state id, fuel)` visited set is the phase's dedup
            // structure — mirroring the race phase's convention — so
            // `states_visited <= states_interned` holds even when fuel
            // layering revisits a state; the *returned* count is still
            // the arena's distinct states.
            metrics.add(Counter::StatesInterned, visited.len() as u64);
        }
        interner.len()
    }

    /// [`count_reachable_states_governed`](ModelExplorer::count_reachable_states_governed)
    /// under the parallel entry point's signature. Runs sequentially at
    /// every `jobs`, like the other verdict phases (see
    /// [`behaviours_par_governed`](ModelExplorer::behaviours_par_governed)).
    #[must_use]
    pub fn count_reachable_states_par_governed(
        &self,
        opts: &ExploreOptions,
        _jobs: usize,
        guard: &BudgetGuard,
    ) -> usize {
        self.count_reachable_states_governed(opts, guard)
    }
}

// ---------------------------------------------------------------------
// The machine: moves, reduction, fuel and witness lift of every model
// ---------------------------------------------------------------------

impl<M: MemoryModel> ModelExplorer<'_, M> {
    /// Does the model buffer stores? SC is the machine whose buffers
    /// are always empty.
    fn buffered(&self) -> bool {
        self.model.kind() != MemoryModelKind::Sc
    }

    /// All enabled moves of `state`, in deterministic order: every
    /// flush, then each thread's start or act move. Volatile accesses,
    /// locks and unlocks act as fences: they wait until the thread's
    /// buffers have drained. Sets `*truncated` when a thread silently
    /// diverges within `opts.max_tau` (its moves are dropped).
    #[must_use]
    pub fn moves(
        &self,
        state: &M::State,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Vec<ModelMove<M::State>> {
        let mut cfgs = self.model.explorer().configs(opts.max_tau);
        let moves = self.machine_moves(&mut cfgs, state, truncated);
        drop(cfgs);
        self.model_moves(state, moves)
    }

    /// [`moves`](ModelExplorer::moves) in configuration ids, under the
    /// caller's lock of the configuration table.
    fn machine_moves(
        &self,
        cfgs: &mut Configs<'_>,
        state: &M::State,
        truncated: &mut bool,
    ) -> Vec<MachineMove> {
        let mut out = self.model.flushes(state);
        for k in 0..self.model.explorer().program().thread_count() {
            let drained = self.model.drained(state, k);
            let mv = cfgs.thread_move(
                k,
                self.model.cfg(state, k),
                |loc| (drained || !loc.is_volatile()).then(|| self.model.read_value(state, k, loc)),
                |action| match *action {
                    Action::Write { loc, .. } => drained || !loc.is_volatile(),
                    Action::Lock(m) => {
                        drained && self.model.holder(state, m).is_none_or(|h| h == k)
                    }
                    Action::Unlock(_) => drained,
                    _ => true,
                },
                truncated,
            );
            out.extend(mv.map(MachineMove::Act));
        }
        out
    }

    /// The model moves of `moves`, each applied to `state`.
    fn model_moves(&self, state: &M::State, moves: Vec<MachineMove>) -> Vec<ModelMove<M::State>> {
        moves
            .into_iter()
            .map(|mv| {
                let (thread, label) = match mv {
                    MachineMove::Act(act) => (act.thread, MoveLabel::Action(act.action)),
                    MachineMove::Flush { thread, loc } => (thread, self.model.flush_label(loc)),
                };
                ModelMove {
                    thread,
                    label,
                    next: self.model.apply(state, &mv),
                }
            })
            .collect()
    }

    /// The reduced moves of `state` for `goal`: the reduction of the
    /// module doc, then the await stutter collapse. The reduction is off
    /// with `opts.por == false`, and for the race goal on a buffered
    /// machine. The collapse is orthogonal to it: it applies to the
    /// behaviour goal even with `por == false` (it is a stutter removal,
    /// not an ample-set choice), and never to the race goal (a spin
    /// read can race, so the race search keeps every failed read
    /// adjacent to the writes of the watched location). A self-loop
    /// read never passes the ast-size proviso, so it is never the ample
    /// singleton, and collapsing after the reduction drops nothing the
    /// reduction relied on. Both run on the id-level moves, under one
    /// lock of the configuration table, so only the surviving moves
    /// build a successor state.
    fn reduced_moves(
        &self,
        state: &M::State,
        goal: ReductionGoal,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Reduced<M::State> {
        let mut cfgs = self.model.explorer().configs(opts.max_tau);
        let mut moves = self.machine_moves(&mut cfgs, state, truncated);
        let kind = if opts.por && (goal == ReductionGoal::Behaviours || !self.buffered()) {
            self.reduce(&mut cfgs, state, &mut moves)
        } else {
            ExpansionKind::Full
        };
        let (await_collapsed, await_wakeups) = if goal == ReductionGoal::Behaviours && opts.awaits {
            cfgs.collapse_awaits(&mut moves, |mv| match *mv {
                MachineMove::Act(act) => Some((act, self.model.cfg(state, act.thread))),
                MachineMove::Flush { .. } => None,
            })
        } else {
            (0, 0)
        };
        drop(cfgs);
        Reduced {
            moves: self.model_moves(state, moves),
            kind,
            await_collapsed,
            await_wakeups,
        }
    }

    /// Narrows `moves` to a singleton ample set — a commuting flush,
    /// else the lowest-indexed invisible act that passes the cycle
    /// proviso — or leaves them all. Each thread has at most one act
    /// here (the semantics is deterministic per thread given what it
    /// reads), so an invisible act is stable: no other thread's move
    /// can disable it. Returns how the expansion was
    /// reduced ([`ExpansionKind::FullProviso`] when only the proviso
    /// blocked a singleton). The choice is a pure function of the
    /// state, keeping memoisation exact.
    fn reduce(
        &self,
        cfgs: &mut Configs<'_>,
        state: &M::State,
        moves: &mut Vec<MachineMove>,
    ) -> ExpansionKind {
        // Commuting-flush singleton: nobody but the flusher can ever
        // observe the drained location.
        let flush = moves.iter().position(|mv| match *mv {
            MachineMove::Flush { thread, loc } => self.others_avoid(cfgs, state, thread, |j, m| {
                m.accesses.contains(&loc) || self.model.has_buffered(state, j, loc)
            }),
            MachineMove::Act(_) => false,
        });
        if let Some(i) = flush {
            let mv = moves[i];
            moves.clear();
            moves.push(mv);
            return ExpansionKind::AmpleFlush;
        }
        // Invisible-act singleton, gated by the cycle proviso.
        let mut saw_invisible = false;
        for i in 0..moves.len() {
            let MachineMove::Act(act) = moves[i] else {
                continue;
            };
            if !self.invisible(cfgs, state, &act) {
                continue;
            }
            saw_invisible = true;
            if self.proviso_ok(cfgs, state, &act) {
                moves.clear();
                moves.push(MachineMove::Act(act));
                return ExpansionKind::Ample;
            }
        }
        if saw_invisible {
            ExpansionKind::FullProviso
        } else {
            ExpansionKind::Full
        }
    }

    /// Is `mv` dynamically invisible at `state`?
    ///
    /// A move of thread `k` is dynamically invisible when no move any
    /// other thread can **still** perform changes, disables, observes or
    /// conflicts with it: a start always; a non-volatile read when no
    /// other thread's remaining code writes the location and no other
    /// thread has buffered a store to it; a non-volatile write when the
    /// machine buffers it (it only appends to the writer's own buffer;
    /// its visibility happens at the separate flush) or no other
    /// thread's remaining code accesses the location; a lock or unlock
    /// when no other thread can use the monitor; an output when no
    /// other thread can emit output. Volatile accesses are never
    /// invisible. The predicate retires as threads advance: a location
    /// stops being contended the moment its last foreign accessor has
    /// moved past its accesses. Under SC it mirrors
    /// `transafety_interleaving::Explorer`'s predicate; see
    /// `docs/paper-mapping.md` for the soundness argument.
    ///
    /// A read that thread `k` would forward from its own buffer is
    /// *not* invisible on that ground alone: the forwarded value holds
    /// only while `k`'s entry stays buffered. In the order where `k`
    /// flushes the entry, another thread's write to the location then
    /// lands in memory, and only then `k` reads, the read returns the
    /// foreign value. That order starts with a move dependent on the
    /// read (the flush changes what it returns), so choosing the
    /// forwarded read as a singleton ample set would violate the
    /// ample-set condition C1 and prune the order's behaviours.
    fn invisible(&self, cfgs: &mut Configs<'_>, state: &M::State, mv: &ThreadMove) -> bool {
        let k = mv.thread;
        match mv.action {
            Action::Start(_) => true,
            Action::Read { loc, .. } | Action::Write { loc, .. } if loc.is_volatile() => false,
            // No other thread may ever write (or have buffered) the
            // location — even when the read would be forwarded from
            // the own buffer, which `k` may flush before a foreign
            // write lands.
            Action::Read { loc, .. } => self.others_avoid(cfgs, state, k, |j, m| {
                m.writes.contains(&loc) || self.model.has_buffered(state, j, loc)
            }),
            Action::Write { loc, .. } => {
                self.buffered()
                    || self.others_avoid(cfgs, state, k, |_, m| m.accesses.contains(&loc))
            }
            Action::Lock(mon) | Action::Unlock(mon) => {
                self.others_avoid(cfgs, state, k, |_, m| m.monitors.contains(&mon))
            }
            Action::External(_) => self.others_avoid(cfgs, state, k, |_, m| m.externals),
        }
    }

    /// Does no thread but `k` meet `touches`, asked of each other
    /// thread `j` with the footprint of its remaining code? Footprints
    /// are fetched one thread at a time, so a conflict found early
    /// fetches no more.
    fn others_avoid(
        &self,
        cfgs: &mut Configs<'_>,
        state: &M::State,
        k: usize,
        touches: impl Fn(usize, &CfgMeta) -> bool,
    ) -> bool {
        (0..self.model.explorer().program().thread_count())
            .all(|j| j == k || !touches(j, &cfgs.meta(j, self.model.cfg(state, j))))
    }

    /// The ast-size cycle proviso: may `mv` be an ample singleton
    /// without risking the ignoring problem? `Start` moves are one-shot
    /// (a thread starts at most once), and every other ample move must
    /// strictly shrink the moving thread's remaining AST — so the sum
    /// of remaining sizes is a well-founded measure that strictly
    /// decreases along any ample-only path, and every cycle of the
    /// reduced state graph (a loop iteration maps a configuration back
    /// to itself, size unchanged) contains a fully expanded state.
    fn proviso_ok(&self, cfgs: &mut Configs<'_>, state: &M::State, mv: &ThreadMove) -> bool {
        if matches!(mv.action, Action::Start(_)) {
            return true;
        }
        let cur = cfgs
            .meta(mv.thread, self.model.cfg(state, mv.thread))
            .ast_size;
        cfgs.meta(mv.thread, mv.next_cfg).ast_size < cur
    }

    /// Action fuel for the behaviour engines, under every model: the
    /// explorer's [`fuel`](ProgramExplorer::fuel). Flush moves never
    /// consume fuel.
    #[must_use]
    pub fn fuel(&self, opts: &ExploreOptions) -> usize {
        self.model.explorer().fuel(opts)
    }

    /// Fuel for the race search and the census. SC's program state
    /// space is finite even with loops (values are drawn from program
    /// constants), so those searches are exact and take `usize::MAX`.
    /// A buffered machine has an infinite state space on loopy programs
    /// (buffers grow without bound), so there they are bounded by
    /// [`fuel`](ModelExplorer::fuel) to terminate. That exactness is why
    /// the checker answers the race question under every model with the
    /// SC search (see [`lift_sc_witness`](ModelExplorer::lift_sc_witness)).
    #[must_use]
    pub fn search_fuel(&self, opts: &ExploreOptions) -> usize {
        if self.buffered() {
            self.fuel(opts)
        } else {
            usize::MAX
        }
    }

    /// Lifts a race witness of the SC engine, found on the same
    /// program, to a witness of this machine. §5 proves that write→read
    /// reordering and read-after-write elimination preserve data race
    /// freedom, and §8 that they are all TSO adds to SC, so a program
    /// races on the buffered machines iff it races under SC. The lift
    /// keeps [`witness`](ModelRaceWitness::witness), the SC
    /// interleaving, and schedules its actions in the same order, each
    /// non-volatile store flushed by its thread right after it is
    /// buffered, so memory always equals the SC memory and every read
    /// returns its SC value. The racing access that ends the witness
    /// stays buffered. Nothing is buffered under SC, so there the lift
    /// is the identity.
    #[must_use]
    pub fn lift_sc_witness(&self, sc: ModelRaceWitness) -> ModelRaceWitness {
        if !self.buffered() {
            return sc;
        }
        let events = sc.witness.execution.events();
        let mut schedule = Vec::with_capacity(2 * events.len());
        for (i, event) in events.iter().enumerate() {
            let thread = event.thread().index() as usize;
            let action = event.action();
            schedule.push(ScheduleStep {
                thread,
                label: MoveLabel::Action(action),
            });
            if let Action::Write { loc, .. } = action {
                if !loc.is_volatile() && i + 1 < events.len() {
                    schedule.push(ScheduleStep {
                        thread,
                        label: self.model.flush_label(loc),
                    });
                }
            }
        }
        ModelRaceWitness {
            witness: sc.witness,
            schedule,
        }
    }
}

// ---------------------------------------------------------------------
// The SC backend: the compact ProgramExplorer machine behind the trait
// ---------------------------------------------------------------------

/// The sequentially consistent backend: the memory layer of the compact
/// [`ProgramExplorer`] machine (interned thread configs, word states),
/// with store buffers that are always empty. [`ProgramExplorer`]'s
/// public entry points are thin wrappers over `ModelExplorer<ScModel>`,
/// so this backend *is* the production SC engine, not a parallel
/// implementation of it.
#[derive(Debug, Clone, Copy)]
pub struct ScModel<'e, 'p> {
    explorer: &'e ProgramExplorer<'p>,
}

impl<'e, 'p> ScModel<'e, 'p> {
    /// Wraps a program explorer as a model backend.
    #[must_use]
    pub fn new(explorer: &'e ProgramExplorer<'p>) -> Self {
        ScModel { explorer }
    }
}

impl MemoryModel for ScModel<'_, '_> {
    type State = CState;

    fn kind(&self) -> MemoryModelKind {
        MemoryModelKind::Sc
    }

    fn explorer(&self) -> &ProgramExplorer<'_> {
        self.explorer
    }

    fn initial(&self) -> CState {
        self.explorer.initial_compact()
    }

    fn cfg(&self, state: &CState, k: usize) -> CfgId {
        state.cfg(k)
    }

    fn read_value(&self, state: &CState, _k: usize, loc: Loc) -> Value {
        self.explorer.mem(state, loc)
    }

    fn holder(&self, state: &CState, m: Monitor) -> Option<usize> {
        self.explorer.holder(state, m)
    }

    fn has_buffered(&self, _state: &CState, _k: usize, _loc: Loc) -> bool {
        false
    }

    fn drained(&self, _state: &CState, _k: usize) -> bool {
        true
    }

    fn flushes(&self, _state: &CState) -> Vec<MachineMove> {
        Vec::new()
    }

    fn apply(&self, state: &CState, mv: &MachineMove) -> CState {
        match mv {
            MachineMove::Act(act) => self.explorer.apply(state, act),
            MachineMove::Flush { .. } => unreachable!("nothing is buffered under SC"),
        }
    }
}
