//! Exploration observability: counters, phase spans and a post-mortem
//! trace ring — the instrumentation layer behind `drfcheck --stats`.
//!
//! Stateless model checkers are judged by their search statistics
//! (states visited, reduction ratios, interner behaviour), so every
//! governed entry point of the pipeline records into an
//! [`ExploreMetrics`] collector that rides on the run's
//! [`BudgetGuard`](crate::BudgetGuard). The layer is
//! **zero-cost when disabled**: the default guard carries the shared
//! disabled collector, whose recording methods are a single predicted
//! branch on a constant `false` — no atomics, no clock reads, no locks.
//!
//! When enabled (via
//! [`BudgetGuard::with_metrics`](crate::BudgetGuard::with_metrics)),
//! the collector provides:
//!
//! * **atomic counters** ([`Counter`]) — one array per collector, which
//!   hot loops batch into through a [`CounterTally`];
//! * **phase spans** ([`Phase`], [`ExploreMetrics::span`]) — wall-time
//!   accumulated per pipeline phase (behaviour evaluation, race
//!   search, census) through RAII guards, robust to early returns;
//! * **a ring-buffered event log** ([`TraceEvent`]) — the most recent
//!   [`RING_CAPACITY`] timestamped events (phase transitions, budget
//!   trips) for post-mortem dumps via `drfcheck --trace-out`.
//!
//! A finished run is summarised as an [`ExploreStats`] snapshot — a
//! plain, comparable struct that the checker surfaces as
//! `AnalysisReport::stats` and that serialises to a stable JSON schema
//! ([`ExploreStats::to_json`], schema id [`STATS_SCHEMA`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::intern::InternStats;

/// Capacity of the post-mortem event ring: once full, the oldest event
/// is dropped for each new one (the drop count is reported in
/// [`ExploreStats::events_dropped`]).
pub const RING_CAPACITY: usize = 1024;

/// Schema identifier emitted as the `"schema"` key of
/// [`ExploreStats::to_json`]; bump when the key set changes. (v2 added
/// the `await_collapsed`/`await_wakeups` counters of the await-aware
/// stutter reduction.)
pub const STATS_SCHEMA: &str = "drfcheck-stats-v2";

/// One observable quantity of an exploration run. The discriminant
/// indexes the counter array, so the enum is `#[repr(usize)]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Search nodes expanded (mirrors `BudgetGuard::note_state`, plus
    /// the census worklist pops the guard does not see).
    StatesVisited,
    /// Distinct keys admitted to the run's dedup structures (memo
    /// tables, visited sets, sharded interners). On a run that explores
    /// its space exhaustively this equals [`Counter::StatesVisited`];
    /// truncated or early-exiting runs leave admitted-but-unexpanded
    /// frontier keys, so `visited <= interned` always holds.
    StatesInterned,
    /// Dedup hits: moves whose successor was already known.
    StatesDeduped,
    /// Enabled moves generated across all expansions.
    MovesGenerated,
    /// Expansions where the partial-order reduction selected a
    /// singleton ample set.
    PorAmpleHits,
    /// Expansions that enumerated the full enabled-move set (reduction
    /// off, or no invisible move available).
    PorFullExpansions,
    /// Probe sequences started in [`StateInterner`](crate::intern::StateInterner) tables.
    InternProbes,
    /// Probes that found the key already interned.
    InternHits,
    /// Occupied-slot steps taken past mismatching entries (open
    /// addressing displacement; the quality signal for the hash).
    InternCollisions,
    /// Distinct keys held by the interners whose stats were harvested.
    InternKeys,
    /// Total probe-table slots behind those keys (with
    /// [`Counter::InternKeys`], gives the aggregate load factor).
    InternSlots,
    /// Wall-clock deadline trips observed.
    TripWallClock,
    /// Explored-state-cap trips observed.
    TripStates,
    /// External-cancellation trips observed.
    TripCancelled,
    /// Interleaving-enumeration-cap (soft) trips observed.
    TripInterleavings,
    /// Per-execution action-fuel (soft) trips observed.
    TripActions,
    /// Expansions where a dynamically-invisible move was available but
    /// the cycle proviso forced a full expansion anyway (a loop edge
    /// the reduction must not ignore).
    DporProvisoBlocks,
    /// Ample expansions whose singleton was a store-buffer flush
    /// commuting with every other thread (TSO/PSO only; a subset of
    /// [`Counter::PorAmpleHits`]).
    DporFlushAmpleHits,
    /// Race-search steps that carried the last-access tracker through
    /// an ample move unchanged (the dynamic reduction's
    /// check-before-carry discipline).
    DporPrevCarries,
    /// Failed await-loop re-reads dropped by the behaviour-phase
    /// stutter collapse: the read left the spinning thread's
    /// configuration (and hence the whole state) unchanged, so the
    /// self-loop edge is pruned instead of burning a fuel layer.
    AwaitCollapsed,
    /// Reads on an await-watched location that *advanced* the spinning
    /// thread and were therefore kept — the value-change wakeups (plus
    /// one first-iteration read per spin entry, which materialises the
    /// guard register).
    AwaitWakeups,
}

/// Number of [`Counter`] variants (the counter array's length).
const N_COUNTERS: usize = Counter::AwaitWakeups as usize + 1;

/// How one state expansion was reduced (or not). Recorded by
/// [`ExploreMetrics::record_expansion`] / [`CounterTally::expansion`]
/// and mapped onto the `por_*`/`dpor_*` counters:
///
/// * [`Full`](ExpansionKind::Full) → [`Counter::PorFullExpansions`];
/// * [`FullProviso`](ExpansionKind::FullProviso) →
///   [`Counter::PorFullExpansions`] **and**
///   [`Counter::DporProvisoBlocks`];
/// * [`Ample`](ExpansionKind::Ample) → [`Counter::PorAmpleHits`];
/// * [`AmpleFlush`](ExpansionKind::AmpleFlush) →
///   [`Counter::PorAmpleHits`] **and**
///   [`Counter::DporFlushAmpleHits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpansionKind {
    /// The full enabled-move set was enumerated (reduction off, or no
    /// dynamically-invisible move available).
    Full,
    /// An invisible move existed, but the cycle proviso rejected it and
    /// forced a full expansion.
    FullProviso,
    /// The reduction selected a singleton ample set.
    Ample,
    /// The reduction selected a singleton ample set consisting of a
    /// commuting store-buffer flush (TSO/PSO).
    AmpleFlush,
}

impl ExpansionKind {
    /// Did this expansion reduce to a singleton ample set?
    #[must_use]
    pub fn is_ample(self) -> bool {
        matches!(self, ExpansionKind::Ample | ExpansionKind::AmpleFlush)
    }
}

/// A pipeline phase timed by [`ExploreMetrics::span`]. The per-phase
/// times are *inclusive*, so nested spans would not sum to the run's
/// wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// The behaviour-set dynamic program.
    BehaviourEval,
    /// The adjacent-conflict data-race search.
    RaceSearch,
    /// The reachable-state census.
    Census,
}

/// Number of [`Phase`] variants.
const N_PHASES: usize = Phase::Census as usize + 1;

impl Phase {
    /// Stable lower-snake name (used for event labels and JSON keys).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::BehaviourEval => "behaviour_eval",
            Phase::RaceSearch => "race_search",
            Phase::Census => "census",
        }
    }
}

/// One timestamped entry of the post-mortem ring log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the collector was created.
    pub at_nanos: u64,
    /// What happened (a static label: `"phase_start:race_search"`,
    /// `"trip:wall_clock"`, …).
    pub label: &'static str,
    /// An event-specific payload (phase duration in nanoseconds, trip
    /// code, node count, …); `0` when the label alone is the message.
    pub value: u64,
}

/// The bounded event log: keeps the most recent [`RING_CAPACITY`]
/// events and counts the ones it had to drop.
#[derive(Debug, Default)]
struct RingLog {
    events: std::collections::VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingLog {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == RING_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// The metrics collector for one analysis run.
///
/// Created enabled by [`ExploreMetrics::collector`] and attached to a
/// [`BudgetGuard`](crate::BudgetGuard) via
/// [`with_metrics`](crate::BudgetGuard::with_metrics); every other
/// guard shares the process-wide [`disabled`](ExploreMetrics::disabled)
/// instance, whose recording methods cost one branch.
#[derive(Debug)]
pub struct ExploreMetrics {
    enabled: bool,
    epoch: Instant,
    counters: [AtomicU64; N_COUNTERS],
    phase_nanos: [AtomicU64; N_PHASES],
    ring: Mutex<RingLog>,
}

impl ExploreMetrics {
    fn new(enabled: bool) -> Self {
        ExploreMetrics {
            enabled,
            epoch: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            ring: Mutex::new(RingLog::default()),
        }
    }

    /// A fresh, enabled collector for one run.
    #[must_use]
    pub fn collector() -> Arc<Self> {
        Arc::new(ExploreMetrics::new(true))
    }

    /// The process-wide disabled collector (all recording methods are
    /// no-ops): what every guard that was not given a collector uses.
    #[must_use]
    pub fn disabled() -> Arc<Self> {
        static DISABLED: OnceLock<Arc<ExploreMetrics>> = OnceLock::new();
        Arc::clone(DISABLED.get_or_init(|| Arc::new(ExploreMetrics::new(false))))
    }

    /// Is this collector recording?
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n` to `counter` (no-op when disabled).
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if !self.enabled {
            return;
        }
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to `counter` (no-op when disabled).
    #[inline]
    pub fn bump(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Records one state expansion: `moves` enabled moves were
    /// generated, reduced (or not) as described by `kind`.
    #[inline]
    pub fn record_expansion(&self, moves: usize, kind: ExpansionKind) {
        if !self.enabled {
            return;
        }
        self.add(Counter::MovesGenerated, moves as u64);
        if kind.is_ample() {
            self.bump(Counter::PorAmpleHits);
        } else {
            self.bump(Counter::PorFullExpansions);
        }
        match kind {
            ExpansionKind::FullProviso => self.bump(Counter::DporProvisoBlocks),
            ExpansionKind::AmpleFlush => self.bump(Counter::DporFlushAmpleHits),
            ExpansionKind::Full | ExpansionKind::Ample => {}
        }
    }

    /// Records one race-search step that carried the last-access
    /// tracker through an ample move unchanged.
    #[inline]
    pub fn record_prev_carry(&self) {
        self.bump(Counter::DporPrevCarries);
    }

    /// Harvests one interner's probe statistics into the aggregate
    /// counters (called once per interner, at the end of its phase).
    pub fn record_intern(&self, stats: InternStats) {
        if !self.enabled {
            return;
        }
        self.add(Counter::InternProbes, stats.probes);
        self.add(Counter::InternHits, stats.hits);
        self.add(Counter::InternCollisions, stats.collisions);
        self.add(Counter::InternKeys, stats.keys);
        self.add(Counter::InternSlots, stats.slots);
    }

    /// Appends `label`/`value` to the ring log (no-op when disabled).
    pub fn event(&self, label: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        let at_nanos = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(TraceEvent {
                at_nanos,
                label,
                value,
            });
    }

    /// Starts timing `phase`; the returned RAII guard adds the elapsed
    /// wall time on drop (and logs start/end events). When the
    /// collector is disabled, neither the clock nor the ring is
    /// touched.
    #[must_use]
    pub fn span(&self, phase: Phase) -> PhaseSpan<'_> {
        let start = if self.enabled {
            self.event(phase_start_label(phase), 0);
            Some(Instant::now())
        } else {
            None
        };
        PhaseSpan {
            metrics: self,
            phase,
            start,
        }
    }

    /// Summarises everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> ExploreStats {
        let total = |c: Counter| self.counters[c as usize].load(Ordering::Relaxed);
        let ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ExploreStats {
            enabled: self.enabled,
            model: String::new(),
            states_visited: total(Counter::StatesVisited),
            states_interned: total(Counter::StatesInterned),
            states_deduped: total(Counter::StatesDeduped),
            moves_generated: total(Counter::MovesGenerated),
            por_ample_hits: total(Counter::PorAmpleHits),
            por_full_expansions: total(Counter::PorFullExpansions),
            intern_probes: total(Counter::InternProbes),
            intern_hits: total(Counter::InternHits),
            intern_collisions: total(Counter::InternCollisions),
            intern_keys: total(Counter::InternKeys),
            intern_slots: total(Counter::InternSlots),
            pool_tasks: 0,
            pool_steals: 0,
            pool_parks: 0,
            pool_wakes: 0,
            trip_wall_clock: total(Counter::TripWallClock),
            trip_states: total(Counter::TripStates),
            trip_cancelled: total(Counter::TripCancelled),
            trip_worker_panic: 0,
            trip_interleavings: total(Counter::TripInterleavings),
            trip_actions: total(Counter::TripActions),
            dpor_proviso_blocks: total(Counter::DporProvisoBlocks),
            dpor_flush_ample_hits: total(Counter::DporFlushAmpleHits),
            dpor_prev_carries: total(Counter::DporPrevCarries),
            await_collapsed: total(Counter::AwaitCollapsed),
            await_wakeups: total(Counter::AwaitWakeups),
            graph_build_nanos: 0,
            behaviour_eval_nanos: self.phase_nanos[Phase::BehaviourEval as usize]
                .load(Ordering::Relaxed),
            race_search_nanos: self.phase_nanos[Phase::RaceSearch as usize].load(Ordering::Relaxed),
            census_nanos: self.phase_nanos[Phase::Census as usize].load(Ordering::Relaxed),
            pool_drain_nanos: 0,
            events: ring.events.iter().cloned().collect(),
            events_dropped: ring.dropped,
        }
    }
}

/// A stack-local counter batch for single-thread hot loops.
///
/// Even uncontended, [`ExploreMetrics::add`] costs an atomic RMW — a
/// measurable tax when a DFS bumps several counters per explored
/// state. A tally turns those into plain [`Cell`](std::cell::Cell)
/// additions and pays the atomics once per counter when dropped, so
/// the whole loop costs what a handful of direct `add` calls would.
/// Recording into a tally is so cheap it skips the enabled check; the
/// flush discards everything when the collector is disabled.
///
/// Takes `&self` so recursive explorers can share one tally without
/// threading `&mut` through the recursion. Not `Sync`: code recording
/// from several threads at once uses the collector directly.
#[derive(Debug)]
pub struct CounterTally<'a> {
    metrics: &'a ExploreMetrics,
    counts: [std::cell::Cell<u64>; N_COUNTERS],
}

impl<'a> CounterTally<'a> {
    /// A zeroed tally flushing into `metrics` on drop.
    #[must_use]
    pub fn new(metrics: &'a ExploreMetrics) -> Self {
        CounterTally {
            metrics,
            counts: std::array::from_fn(|_| std::cell::Cell::new(0)),
        }
    }

    /// Adds `n` to the local `counter` batch.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        let cell = &self.counts[counter as usize];
        cell.set(cell.get() + n);
    }

    /// Adds 1 to the local `counter` batch.
    #[inline]
    pub fn bump(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Batches one state expansion (the tally-side
    /// [`ExploreMetrics::record_expansion`]).
    #[inline]
    pub fn expansion(&self, moves: usize, kind: ExpansionKind) {
        self.add(Counter::MovesGenerated, moves as u64);
        if kind.is_ample() {
            self.bump(Counter::PorAmpleHits);
        } else {
            self.bump(Counter::PorFullExpansions);
        }
        match kind {
            ExpansionKind::FullProviso => self.bump(Counter::DporProvisoBlocks),
            ExpansionKind::AmpleFlush => self.bump(Counter::DporFlushAmpleHits),
            ExpansionKind::Full | ExpansionKind::Ample => {}
        }
    }

    /// Batches one prev-carry (the tally-side
    /// [`ExploreMetrics::record_prev_carry`]).
    #[inline]
    pub fn prev_carry(&self) {
        self.bump(Counter::DporPrevCarries);
    }
}

impl Drop for CounterTally<'_> {
    fn drop(&mut self) {
        if !self.metrics.enabled {
            return;
        }
        for (slot, count) in self.metrics.counters.iter().zip(&self.counts) {
            let n = count.get();
            if n != 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

fn phase_start_label(phase: Phase) -> &'static str {
    match phase {
        Phase::BehaviourEval => "phase_start:behaviour_eval",
        Phase::RaceSearch => "phase_start:race_search",
        Phase::Census => "phase_start:census",
    }
}

fn phase_end_label(phase: Phase) -> &'static str {
    match phase {
        Phase::BehaviourEval => "phase_end:behaviour_eval",
        Phase::RaceSearch => "phase_end:race_search",
        Phase::Census => "phase_end:census",
    }
}

/// RAII timer for one [`Phase`] (see [`ExploreMetrics::span`]).
#[derive(Debug)]
pub struct PhaseSpan<'m> {
    metrics: &'m ExploreMetrics,
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.metrics.phase_nanos[self.phase as usize].fetch_add(nanos, Ordering::Relaxed);
            self.metrics.event(phase_end_label(self.phase), nanos);
        }
    }
}

/// The summarised statistics of one analysis run: every counter, the
/// per-phase wall times, and the tail of the event log. All counts are
/// unsigned totals (never negative, never NaN); a collector that was
/// disabled reports `enabled == false` and all-zero counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Was the run actually recording? (`false` means every count
    /// below is a structural zero, not a measured zero.)
    pub enabled: bool,
    /// The memory model the producing analysis explored under
    /// (`"sc"`, `"tso"` or `"pso"`). The collector itself is
    /// model-agnostic, so [`ExploreMetrics::snapshot`] leaves this
    /// empty and the analysis layer stamps it; an empty string
    /// serialises as the `"sc"` baseline.
    pub model: String,
    /// See [`Counter::StatesVisited`].
    pub states_visited: u64,
    /// See [`Counter::StatesInterned`].
    pub states_interned: u64,
    /// See [`Counter::StatesDeduped`].
    pub states_deduped: u64,
    /// See [`Counter::MovesGenerated`].
    pub moves_generated: u64,
    /// See [`Counter::PorAmpleHits`].
    pub por_ample_hits: u64,
    /// See [`Counter::PorFullExpansions`].
    pub por_full_expansions: u64,
    /// See [`Counter::InternProbes`].
    pub intern_probes: u64,
    /// See [`Counter::InternHits`].
    pub intern_hits: u64,
    /// See [`Counter::InternCollisions`].
    pub intern_collisions: u64,
    /// See [`Counter::InternKeys`].
    pub intern_keys: u64,
    /// See [`Counter::InternSlots`].
    pub intern_slots: u64,
    /// Always 0. This and the other pool fields (`pool_steals`,
    /// `pool_parks`, `pool_wakes`, `graph_build_nanos`,
    /// `pool_drain_nanos`), like `trip_worker_panic`, measured the
    /// parallel graph drivers, which were deleted; they keep their
    /// stats-schema keys until the next schema version prunes them.
    pub pool_tasks: u64,
    /// Always 0 (see [`pool_tasks`](ExploreStats::pool_tasks)).
    pub pool_steals: u64,
    /// Always 0 (see [`pool_tasks`](ExploreStats::pool_tasks)).
    pub pool_parks: u64,
    /// Always 0 (see [`pool_tasks`](ExploreStats::pool_tasks)).
    pub pool_wakes: u64,
    /// See [`Counter::TripWallClock`].
    pub trip_wall_clock: u64,
    /// See [`Counter::TripStates`].
    pub trip_states: u64,
    /// See [`Counter::TripCancelled`].
    pub trip_cancelled: u64,
    /// Always 0 (see [`pool_tasks`](ExploreStats::pool_tasks)).
    pub trip_worker_panic: u64,
    /// See [`Counter::TripInterleavings`].
    pub trip_interleavings: u64,
    /// See [`Counter::TripActions`].
    pub trip_actions: u64,
    /// See [`Counter::DporProvisoBlocks`].
    pub dpor_proviso_blocks: u64,
    /// See [`Counter::DporFlushAmpleHits`].
    pub dpor_flush_ample_hits: u64,
    /// See [`Counter::DporPrevCarries`].
    pub dpor_prev_carries: u64,
    /// See [`Counter::AwaitCollapsed`].
    pub await_collapsed: u64,
    /// See [`Counter::AwaitWakeups`].
    pub await_wakeups: u64,
    /// Always 0 (see [`pool_tasks`](ExploreStats::pool_tasks)).
    pub graph_build_nanos: u64,
    /// Inclusive wall time of [`Phase::BehaviourEval`], in nanoseconds.
    pub behaviour_eval_nanos: u64,
    /// Inclusive wall time of [`Phase::RaceSearch`], in nanoseconds.
    pub race_search_nanos: u64,
    /// Inclusive wall time of [`Phase::Census`], in nanoseconds.
    pub census_nanos: u64,
    /// Always 0 (see [`pool_tasks`](ExploreStats::pool_tasks)).
    pub pool_drain_nanos: u64,
    /// The tail of the event ring (at most [`RING_CAPACITY`] entries,
    /// oldest first).
    pub events: Vec<TraceEvent>,
    /// Events the ring had to drop to stay bounded.
    pub events_dropped: u64,
}

impl ExploreStats {
    /// Aggregate interner load factor (`keys / slots`), `0.0` when no
    /// interner stats were harvested. Always finite.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        if self.intern_slots == 0 {
            0.0
        } else {
            // Both operands are finite and the divisor is non-zero, so
            // the quotient can be neither NaN nor infinite.
            (self.intern_keys as f64) / (self.intern_slots as f64)
        }
    }

    /// Total budget trips observed, across every cause.
    #[must_use]
    pub fn trips_total(&self) -> u64 {
        self.trip_wall_clock
            + self.trip_states
            + self.trip_cancelled
            + self.trip_worker_panic
            + self.trip_interleavings
            + self.trip_actions
    }

    /// Serialises the stats to one line of JSON with a stable key
    /// order, starting with `"schema": "drfcheck-stats-v2"`. The event
    /// ring is *not* included (dump it with
    /// [`trace_dump`](ExploreStats::trace_dump) /
    /// `drfcheck --trace-out` instead); `events_dropped` is, so a
    /// saturated ring is visible from the stats alone.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        s.push_str(&format!("\"schema\":\"{STATS_SCHEMA}\""));
        s.push_str(&format!(",\"enabled\":{}", self.enabled));
        let model = if self.model.is_empty() {
            "sc"
        } else {
            self.model.as_str()
        };
        s.push_str(&format!(",\"model\":\"{model}\""));
        for (key, value) in [
            ("states_visited", self.states_visited),
            ("states_interned", self.states_interned),
            ("states_deduped", self.states_deduped),
            ("moves_generated", self.moves_generated),
            ("por_ample_hits", self.por_ample_hits),
            ("por_full_expansions", self.por_full_expansions),
            ("intern_probes", self.intern_probes),
            ("intern_hits", self.intern_hits),
            ("intern_collisions", self.intern_collisions),
            ("intern_keys", self.intern_keys),
            ("intern_slots", self.intern_slots),
            ("pool_tasks", self.pool_tasks),
            ("pool_steals", self.pool_steals),
            ("pool_parks", self.pool_parks),
            ("pool_wakes", self.pool_wakes),
            ("trip_wall_clock", self.trip_wall_clock),
            ("trip_states", self.trip_states),
            ("trip_cancelled", self.trip_cancelled),
            ("trip_worker_panic", self.trip_worker_panic),
            ("trip_interleavings", self.trip_interleavings),
            ("trip_actions", self.trip_actions),
            ("dpor_proviso_blocks", self.dpor_proviso_blocks),
            ("dpor_flush_ample_hits", self.dpor_flush_ample_hits),
            ("dpor_prev_carries", self.dpor_prev_carries),
            ("await_collapsed", self.await_collapsed),
            ("await_wakeups", self.await_wakeups),
            ("graph_build_nanos", self.graph_build_nanos),
            ("behaviour_eval_nanos", self.behaviour_eval_nanos),
            ("race_search_nanos", self.race_search_nanos),
            ("census_nanos", self.census_nanos),
            ("pool_drain_nanos", self.pool_drain_nanos),
            ("events_dropped", self.events_dropped),
        ] {
            s.push_str(&format!(",\"{key}\":{value}"));
        }
        s.push_str(&format!(",\"load_factor\":{:.6}", self.load_factor()));
        s.push('}');
        s
    }

    /// Renders the event ring as a tab-separated text dump (one event
    /// per line: nanosecond timestamp, label, value), preceded by a
    /// one-line header. The format `drfcheck --trace-out` writes.
    #[must_use]
    pub fn trace_dump(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# drfcheck trace: {} events ({} dropped)\n",
            self.events.len(),
            self.events_dropped
        ));
        for e in &self.events {
            out.push_str(&format!("{}\t{}\t{}\n", e.at_nanos, e.label, e.value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let m = ExploreMetrics::disabled();
        assert!(!m.is_enabled());
        m.bump(Counter::StatesVisited);
        m.add(Counter::MovesGenerated, 10);
        m.event("ignored", 1);
        {
            let _span = m.span(Phase::RaceSearch);
        }
        let stats = m.snapshot();
        assert_eq!(stats, ExploreStats::default());
        assert!(!stats.enabled);
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let m = ExploreMetrics::collector();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        m.bump(Counter::StatesVisited);
                    }
                    m.add(Counter::MovesGenerated, 5);
                });
            }
        });
        let stats = m.snapshot();
        assert_eq!(stats.states_visited, 4000);
        assert_eq!(stats.moves_generated, 20);
    }

    #[test]
    fn spans_time_phases_and_log_events() {
        let m = ExploreMetrics::collector();
        {
            let _span = m.span(Phase::RaceSearch);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stats = m.snapshot();
        assert!(stats.race_search_nanos >= 1_000_000);
        assert_eq!(stats.behaviour_eval_nanos, 0);
        let labels: Vec<_> = stats.events.iter().map(|e| e.label).collect();
        assert_eq!(
            labels,
            vec!["phase_start:race_search", "phase_end:race_search"]
        );
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let m = ExploreMetrics::collector();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            m.event("tick", i);
        }
        let stats = m.snapshot();
        assert_eq!(stats.events.len(), RING_CAPACITY);
        assert_eq!(stats.events_dropped, 10);
        // Oldest events were the ones dropped.
        assert_eq!(stats.events[0].value, 10);
    }

    #[test]
    fn json_is_stable_and_finite() {
        let stats = ExploreStats {
            enabled: true,
            intern_keys: 7,
            intern_slots: 16,
            ..ExploreStats::default()
        };
        let json = stats.to_json();
        assert!(json.starts_with("{\"schema\":\"drfcheck-stats-v2\",\"enabled\":true"));
        assert!(
            json.contains("\"model\":\"sc\""),
            "unstamped stats default to the sc baseline: {json}"
        );
        let mut tso = stats;
        tso.model = "tso".to_string();
        assert!(tso.to_json().contains("\"model\":\"tso\""));
        let json = ExploreStats {
            enabled: true,
            intern_keys: 7,
            intern_slots: 16,
            ..ExploreStats::default()
        }
        .to_json();
        assert!(json.contains("\"load_factor\":0.4375"));
        assert!(!json.contains("NaN"));
        // A negative value would serialise as `:-…` (the only hyphens
        // elsewhere are the schema id's).
        assert!(!json.contains(":-"), "no negative counters: {json}");
        // Zero slots must not divide by zero.
        assert_eq!(ExploreStats::default().load_factor(), 0.0);
    }

    #[test]
    fn trace_dump_lists_events_in_order() {
        let m = ExploreMetrics::collector();
        m.event("a", 1);
        m.event("b", 2);
        let dump = m.snapshot().trace_dump();
        let lines: Vec<_> = dump.lines().collect();
        assert!(lines[0].starts_with("# drfcheck trace: 2 events"));
        assert!(lines[1].ends_with("\ta\t1"));
        assert!(lines[2].ends_with("\tb\t2"));
    }
}
