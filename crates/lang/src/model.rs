//! The pluggable memory-model backend API.
//!
//! The paper's development is carried out under the interleaving (SC)
//! semantics, and until this module every explorer hard-coded it. §8
//! observes that hardware models (TSO, and conjecturally PSO) are
//! *explained by* SC plus a fragment of the paper's transformations —
//! which makes cross-model exploration a first-class need: the same
//! checker machinery must be able to run a program under SC, TSO or PSO
//! and compare the verdicts.
//!
//! [`MemoryModel`] abstracts exactly what the engines need from a
//! semantics: an initial machine state, the enabled successor moves of
//! a state (each carrying an optional [`Action`] label — buffer flushes
//! are unlabelled), and the fuel policy that bounds loopy programs. The
//! generic [`ModelExplorer`] then provides the governed engines —
//! memoised behaviour extraction, the adjacent-conflict race search and
//! the reachable-state census — with the same budget checks, state
//! interning and `ExploreMetrics` accounting for every model. The
//! `*_par_governed` entry points are shims over the same sequential
//! engines (see [`ModelExplorer::behaviours_par_governed`]).
//!
//! The [`ScModel`] backend is a pure refactor of the compact SC engine:
//! [`ProgramExplorer`]'s public entry points delegate to
//! `ModelExplorer<ScModel>`, and the pre-existing agreement suites
//! (POR/reference/metrics) pin the refactor to the old
//! engines' observable output. The TSO and PSO machines of the
//! `transafety-tso` crate implement the trait in that crate.
//!
//! Partial-order reduction is **negotiated per model and per goal**:
//! [`MemoryModel::reduced_moves`] receives a [`ReductionGoal`] naming
//! the property the engine is computing and returns a possibly-reduced
//! move set tagged with its [`ExpansionKind`]. The default is no
//! reduction. The SC backend reduces both goals with the dynamic
//! invisible-singleton ample sets of [`ProgramExplorer`] (sound on
//! loop-bearing programs via the ast-size cycle proviso); the TSO/PSO
//! backends reduce only [`ReductionGoal::Behaviours`] (commuting-flush
//! and private-step ample sets) and return the full expansion for
//! [`ReductionGoal::Races`] — the adjacent-conflict witness argument
//! relies on flush-free interposition, which only full race expansions
//! guarantee under a buffered machine. The census never reduces: it
//! counts *all* reachable states by definition.

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use transafety_interleaving::intern::{FxHashMap, FxHashSet, StateInterner};
use transafety_interleaving::metrics::{Counter, CounterTally, ExpansionKind, Phase};
use transafety_interleaving::{Behaviours, BudgetGuard, Event, Interleaving, RaceWitness};
use transafety_traces::{Action, Loc, MemoryModelKind, ThreadId};

use crate::explore::{Bounded, ExploreOptions, ProgramExplorer};

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

/// The property an engine is computing when it asks a model for a
/// reduced move set. Soundness of a reduction depends on the goal: a
/// reduction that preserves the behaviour set need not preserve the
/// adjacent-conflict race witnesses, so models opt in per goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionGoal {
    /// The engine collects external-action behaviours. A reduction must
    /// preserve the set of observable output sequences.
    Behaviours,
    /// The engine runs the adjacent-conflict race search. A reduction
    /// must additionally keep every racing pair detectable through the
    /// last-access tracker and witness-reorderable into adjacency —
    /// under a buffered machine this forbids dropping or interposing
    /// flushes around the tracked access, so TSO/PSO answer with the
    /// full expansion.
    Races,
}

/// A reduced move set, as returned by
/// [`MemoryModel::reduced_moves`]: the moves, the [`ExpansionKind`]
/// describing what the partial-order reduction did, and the await
/// stutter-collapse tallies of the behaviour goal (see
/// [`ExploreOptions::awaits`]). The collapse is orthogonal to the POR:
/// `kind` describes the ample-set choice only, and a state whose
/// self-loop reads were dropped still reports the kind the POR
/// selected.
#[derive(Debug)]
pub struct Reduced<S> {
    /// The (possibly reduced) enabled moves.
    pub moves: Vec<ModelMove<S>>,
    /// How the partial-order reduction treated this expansion.
    pub kind: ExpansionKind,
    /// Failed await re-reads dropped by the stutter collapse (zero for
    /// [`ReductionGoal::Races`], which never collapses).
    pub await_collapsed: u64,
    /// Kept reads on an await-watched location (the spinner advanced).
    pub await_wakeups: u64,
}

impl<S> Reduced<S> {
    /// A reduction result with no await collapse applied.
    #[must_use]
    pub fn new(moves: Vec<ModelMove<S>>, kind: ExpansionKind) -> Self {
        Reduced {
            moves,
            kind,
            await_collapsed: 0,
            await_wakeups: 0,
        }
    }

    /// An unreduced full expansion.
    #[must_use]
    pub fn full(moves: Vec<ModelMove<S>>) -> Self {
        Reduced::new(moves, ExpansionKind::Full)
    }
}

/// A memory model as the exploration engines see it: machine states,
/// enabled moves, and the fuel policy.
///
/// Implementations must be deterministic: equal states must produce
/// equal move lists (the engines memoise and deduplicate on state
/// identity), and the move order must be a pure function of the state
/// (it fixes the exploration and witness order).
pub trait MemoryModel {
    /// The machine state.
    type State: Clone + Eq + Hash;

    /// Which model this is (recorded in reports and stats).
    fn kind(&self) -> MemoryModelKind;

    /// The initial machine state (no thread started, memory zeroed,
    /// buffers empty).
    fn initial(&self) -> Self::State;

    /// All enabled moves of `state`, in deterministic order. Sets
    /// `*truncated` when a thread silently diverges within
    /// `opts.max_tau` (its moves are dropped).
    fn moves(
        &self,
        state: &Self::State,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Vec<ModelMove<Self::State>>;

    /// The reduced move set for `goal`, tagged with the
    /// [`ExpansionKind`] that describes what the reduction did and the
    /// await stutter-collapse tallies.
    ///
    /// The default is **no reduction** for every goal: a model only
    /// overrides this where its ample-set argument is proven. Overrides
    /// must honour `opts.por == false` by returning the full expansion,
    /// and `opts.awaits == false` by not collapsing; the await collapse
    /// applies only to [`ReductionGoal::Behaviours`] (a spin read can
    /// race, so the race goal keeps every failed read).
    fn reduced_moves(
        &self,
        state: &Self::State,
        goal: ReductionGoal,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Reduced<Self::State> {
        let _ = goal;
        Reduced::full(self.moves(state, opts, truncated))
    }

    /// Action fuel for the behaviour engines: `usize::MAX` when the
    /// bounded semantics is exact (loop-free programs), else
    /// `opts.max_actions`. Flush moves never consume fuel.
    fn fuel(&self, opts: &ExploreOptions) -> usize;

    /// Fuel for the race search and the census. The default is
    /// [`fuel`](MemoryModel::fuel): buffered machines have an infinite
    /// state space on loopy programs (buffers grow without bound), so
    /// those searches must be fuel-bounded to terminate. SC overrides
    /// this to `usize::MAX` — its program state space is finite even
    /// with loops, and the searches are exact.
    fn search_fuel(&self, opts: &ExploreOptions) -> usize {
        self.fuel(opts)
    }
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
        let fuel = self.model.fuel(opts);
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
        let red = self
            .model
            .reduced_moves(&state, ReductionGoal::Behaviours, opts, truncated);
        tally.expansion(red.moves.len(), red.kind);
        tally.add(Counter::AwaitCollapsed, red.await_collapsed);
        tally.add(Counter::AwaitWakeups, red.await_wakeups);
        let moves = red.moves;
        drop(state);
        if fuel == 0 {
            // Out of action fuel. Flush-only suffixes contribute no
            // behaviour, so nothing below is followed; any pending
            // action move means the set is under-approximated.
            if moves.iter().any(|m| !m.label.is_flush()) {
                *truncated = true;
            }
        } else {
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
    /// [`search_fuel`](MemoryModel::search_fuel) bound is not recorded
    /// here: the behaviour engine shares the same fuel and trips the
    /// guard's action bound whenever the bound binds, which is what the
    /// checker's completeness verdict consumes.
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
            self.model.search_fuel(opts),
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
            self.model
                .reduced_moves(&state, ReductionGoal::Races, opts, truncated);
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
    /// layered by [`search_fuel`](MemoryModel::search_fuel) to
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
        let fuel = self.model.search_fuel(opts);
        let (root, _) = interner.intern(self.model.initial());
        visited.insert((root, fuel));
        let mut stack = vec![(root, fuel)];
        while let Some((id, fuel)) = stack.pop() {
            if guard.should_stop() {
                break;
            }
            guard.note_state_tallied(&tally);
            let state = interner.get(id).clone();
            let moves = self.model.moves(&state, opts, &mut truncated);
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
// The SC backend: the compact ProgramExplorer machine behind the trait
// ---------------------------------------------------------------------

/// The sequentially consistent backend: a zero-cost adapter over the
/// compact [`ProgramExplorer`] machine (interned thread configs, word
/// states, dynamic ample-set POR). [`ProgramExplorer`]'s public entry
/// points are thin wrappers over `ModelExplorer<ScModel>`, so this
/// backend *is* the production SC engine, not a parallel
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
    type State = crate::explore::CState;

    fn kind(&self) -> MemoryModelKind {
        MemoryModelKind::Sc
    }

    fn initial(&self) -> Self::State {
        self.explorer.initial_compact()
    }

    fn moves(
        &self,
        state: &Self::State,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Vec<ModelMove<Self::State>> {
        self.explorer
            .moves_vec(state, opts, truncated)
            .into_iter()
            .map(|mv| ModelMove {
                thread: mv.thread,
                label: MoveLabel::Action(mv.action),
                next: self.explorer.apply(state, &mv),
            })
            .collect()
    }

    fn reduced_moves(
        &self,
        state: &Self::State,
        goal: ReductionGoal,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Reduced<Self::State> {
        // The SC POR serves both goals: there are no flushes, so the
        // race-goal witness argument (check-before-carry plus reorder)
        // holds for the same ample sets that preserve behaviours.
        let (mut moves, kind) = self.explorer.por_moves_vec(state, opts, truncated);
        // The await collapse serves only the behaviour goal: a spin
        // read can race, so the race search keeps every failed read
        // adjacent to the writes of the watched location. A self-loop
        // read never passes the ast-size proviso, so it is never the
        // ample singleton and collapsing after the POR drops nothing
        // the reduction relied on.
        let (await_collapsed, await_wakeups) = if goal == ReductionGoal::Behaviours && opts.awaits {
            self.explorer.collapse_awaits(state, &mut moves)
        } else {
            (0, 0)
        };
        Reduced {
            moves: moves
                .into_iter()
                .map(|mv| ModelMove {
                    thread: mv.thread,
                    label: MoveLabel::Action(mv.action),
                    next: self.explorer.apply(state, &mv),
                })
                .collect(),
            kind,
            await_collapsed,
            await_wakeups,
        }
    }

    fn fuel(&self, opts: &ExploreOptions) -> usize {
        self.explorer.fuel(opts)
    }

    fn search_fuel(&self, _opts: &ExploreOptions) -> usize {
        // The SC program state space is finite (values are drawn from
        // program constants), so the race search and census are exact
        // without fuel.
        usize::MAX
    }
}
