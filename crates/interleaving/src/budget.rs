//! Resource governance for the exploration engines: budgets,
//! cooperative cancellation and three-valued completeness reporting.
//!
//! The explorers enumerate state spaces that grow exponentially with
//! program size, so every entry point of the pipeline accepts a
//! [`BudgetGuard`] — a shared, lock-free runtime monitor built from a
//! declarative [`Budget`] (wall-clock deadline, interned-state cap,
//! interleaving cap) plus a [`CancelToken`] that external parties (a
//! SIGINT handler, a driving service) may trip at any time. Exploration
//! checks the guard cooperatively at every state visit; exceeding any
//! bound stops the search cleanly and records *which* bound tripped as
//! a [`TruncationReason`], so truncated runs are reported as
//! [`Completeness::Truncated`] and never misread as exhaustive proofs.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{Counter, CounterTally, ExploreMetrics};

/// Declarative resource bounds for one analysis run.
///
/// `None` disables a bound. The interleaving cap is always finite (it
/// guards the one entry point that materialises executions).
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use transafety_interleaving::Budget;
/// let b = Budget::unlimited()
///     .timeout(Duration::from_secs(30))
///     .max_states(1_000_000);
/// assert_eq!(b.deadline, Some(Duration::from_secs(30)));
/// assert_eq!(b.max_states, Some(1_000_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline for the whole analysis, measured from the
    /// moment the [`BudgetGuard`] is created.
    pub deadline: Option<Duration>,
    /// Cap on distinct explored states (across all phases of a run) —
    /// an approximate memory budget, since interned states dominate the
    /// explorers' footprint.
    pub max_states: Option<usize>,
    /// Cap on materialised maximal executions (the historical
    /// `ExploreLimits::max_interleavings` knob).
    pub max_interleavings: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            deadline: None,
            max_states: None,
            max_interleavings: 1_000_000,
        }
    }
}

impl Budget {
    /// A budget with no deadline and no state cap (the default).
    #[must_use]
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn timeout(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the explored-state cap.
    #[must_use]
    pub fn max_states(mut self, max: usize) -> Self {
        self.max_states = Some(max);
        self
    }

    /// Sets the interleaving-enumeration cap.
    #[must_use]
    pub fn max_interleavings(mut self, max: usize) -> Self {
        self.max_interleavings = max;
        self
    }

    /// Rejects degenerate bounds that can never admit any work. A zero
    /// deadline or a zero cap is always a configuration mistake — the
    /// run would trip its budget before exploring a single state — so
    /// drivers surface it as a usage error up front instead of letting
    /// it masquerade as a `BudgetExceeded` truncation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first degenerate
    /// bound found.
    pub fn validate(&self) -> Result<(), String> {
        if self.deadline == Some(Duration::ZERO) {
            return Err("timeout must be positive (a zero deadline can never \
                        admit any exploration)"
                .to_string());
        }
        if self.max_states == Some(0) {
            return Err("max-states must be positive (a zero cap can never \
                        admit any exploration)"
                .to_string());
        }
        if self.max_interleavings == 0 {
            return Err("max-interleavings must be positive (a zero cap can \
                        never admit any exploration)"
                .to_string());
        }
        Ok(())
    }
}

/// A shareable cooperative cancellation flag (an `Arc<AtomicBool>`
/// under the hood): clone it freely, hand one clone to the analysis and
/// keep another to [`cancel`](CancelToken::cancel) from a signal
/// handler, a timeout thread or another task.
///
/// # Example
///
/// ```
/// use transafety_interleaving::CancelToken;
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<std::sync::atomic::AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread (the
    /// flag is a plain atomic store, so this is also async-signal-safe
    /// in practice).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The bound of a [`Budget`] that cut an exploration short.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetBound {
    /// The wall-clock deadline expired.
    WallClock,
    /// The explored-state cap was reached.
    States,
    /// The materialised-execution cap was reached.
    Interleavings,
    /// The per-execution action bound cut a looping program's
    /// behaviour set (the pre-existing `ExploreOptions::max_actions`
    /// fuel).
    Actions,
}

impl std::fmt::Display for BudgetBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetBound::WallClock => "wall-clock deadline",
            BudgetBound::States => "explored-state cap",
            BudgetBound::Interleavings => "interleaving cap",
            BudgetBound::Actions => "per-execution action bound",
        })
    }
}

/// Why an analysis did not run to exhaustion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruncationReason {
    /// A declared resource bound tripped.
    BudgetExceeded(BudgetBound),
    /// The [`CancelToken`] was tripped externally (SIGINT, caller).
    Cancelled,
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TruncationReason::BudgetExceeded(b) => write!(f, "budget exceeded ({b})"),
            TruncationReason::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// Did an analysis run to exhaustion, and if not, why not?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Completeness {
    /// Every phase explored its full (bounded-semantics) state space;
    /// verdicts are exact.
    Complete,
    /// At least one phase was cut short; negative verdicts are
    /// inconclusive ("no race found *within budget*").
    Truncated {
        /// The first bound that tripped.
        reason: TruncationReason,
    },
}

impl Completeness {
    /// `true` when no bound tripped.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }
}

impl std::fmt::Display for Completeness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completeness::Complete => f.write_str("complete"),
            Completeness::Truncated { reason } => write!(f, "truncated: {reason}"),
        }
    }
}

// Hard trip codes stored in `BudgetGuard::tripped` (0 = not tripped).
// Hard trips stop *every* subsequent phase of the run; the
// per-execution action fuel and the interleaving-enumeration cap are
// *soft* (recorded as truncation reasons, but e.g. a fuel-truncated
// behaviour phase must not abort the still-exact race search).
const TRIP_WALL_CLOCK: u8 = 1;
const TRIP_STATES: u8 = 2;
const TRIP_CANCELLED: u8 = 3;

/// The most `should_stop` calls that may elapse between two
/// `Instant::now()` reads. The stride is *adaptive*: each clock sample
/// schedules the next one roughly halfway to the deadline at the
/// observed visit rate, clamped to `[1, MAX_DEADLINE_STRIDE]` — a
/// geometric approach that bounds overshoot past the deadline to about
/// one visit's worth of work even when individual visits are expensive,
/// while cheap visits still amortise the ~20–30 ns clock read across up
/// to 64 calls. The cancel token, by contrast, is a single atomic load
/// and is consulted on *every* call, never stride-sampled.
const MAX_DEADLINE_STRIDE: usize = 64;

/// The runtime companion of a [`Budget`]: one guard is created per
/// analysis run, shared by every phase and worker thread, and checked
/// cooperatively at each state visit.
///
/// The guard is monotonic: the *first* bound to trip records its
/// [`TruncationReason`] and every later
/// [`should_stop`](BudgetGuard::should_stop) call returns
/// `true` immediately, so all phases of a run agree on why it stopped.
#[derive(Debug)]
pub struct BudgetGuard {
    start: Instant,
    deadline: Option<Duration>,
    max_states: Option<usize>,
    max_interleavings: usize,
    cancel: CancelToken,
    /// Short-circuit for guards with nothing to watch: the default
    /// entry points pay two branch instructions, not atomics + clock
    /// reads.
    inert: bool,
    states: AtomicUsize,
    checks: AtomicUsize,
    /// The `checks` value at which the wall clock is next sampled
    /// (see [`MAX_DEADLINE_STRIDE`]). Racy updates are benign: any
    /// worker's sample can trip the deadline, and a stale stride only
    /// means one extra clock read.
    next_deadline_check: AtomicUsize,
    /// The `checks` value of the previous clock sample, paired with
    /// `last_check_nanos`: together they give the per-visit cost over
    /// the most recent sampling window, which the adaptive stride is
    /// derived from.
    last_check_n: AtomicUsize,
    /// Elapsed nanoseconds (saturating) at the previous clock sample.
    last_check_nanos: std::sync::atomic::AtomicU64,
    tripped: AtomicU8,
    soft_interleavings: std::sync::atomic::AtomicBool,
    soft_actions: std::sync::atomic::AtomicBool,
    /// The run's observability collector. Defaults to the shared
    /// disabled instance, whose recording methods are one branch — the
    /// guard stays on its fast path unless a caller opts in via
    /// [`with_metrics`](BudgetGuard::with_metrics).
    metrics: Arc<ExploreMetrics>,
}

impl BudgetGuard {
    /// Starts the clock on `budget`, watching `cancel` for external
    /// cancellation.
    #[must_use]
    pub fn new(budget: &Budget, cancel: CancelToken) -> Self {
        BudgetGuard::with_metrics(budget, cancel, ExploreMetrics::disabled())
    }

    /// [`new`](BudgetGuard::new), with an observability collector: every
    /// phase run under this guard records counters, phase spans and
    /// trace events into `metrics` (see the [`metrics`](crate::metrics)
    /// module). Pass [`ExploreMetrics::collector`] to record,
    /// [`ExploreMetrics::disabled`] to opt out.
    #[must_use]
    pub fn with_metrics(
        budget: &Budget,
        cancel: CancelToken,
        metrics: Arc<ExploreMetrics>,
    ) -> Self {
        BudgetGuard {
            start: Instant::now(),
            deadline: budget.deadline,
            max_states: budget.max_states,
            max_interleavings: budget.max_interleavings,
            cancel,
            inert: false,
            states: AtomicUsize::new(0),
            checks: AtomicUsize::new(0),
            next_deadline_check: AtomicUsize::new(0),
            last_check_n: AtomicUsize::new(0),
            last_check_nanos: std::sync::atomic::AtomicU64::new(0),
            tripped: AtomicU8::new(0),
            soft_interleavings: std::sync::atomic::AtomicBool::new(false),
            soft_actions: std::sync::atomic::AtomicBool::new(false),
            metrics,
        }
    }

    /// The observability collector riding on this guard (the shared
    /// disabled instance unless the guard was built with
    /// [`with_metrics`](BudgetGuard::with_metrics)). Explorer phases
    /// use this to record without any signature changes.
    #[must_use]
    pub fn metrics(&self) -> &ExploreMetrics {
        &self.metrics
    }

    /// A guard that never trips and skips all bookkeeping — what the
    /// non-governed entry points use, so they cost nothing extra.
    #[must_use]
    pub fn unlimited() -> Self {
        let mut g = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
        g.inert = true;
        g
    }

    /// The interleaving cap this guard enforces (used by the
    /// execution-enumerating entry points).
    #[must_use]
    pub fn max_interleavings(&self) -> usize {
        self.max_interleavings
    }

    /// Records one newly explored state (called on each memo/interner
    /// miss; the count approximates the run's memory footprint).
    pub fn note_state(&self) {
        self.metrics.bump(Counter::StatesVisited);
        if self.inert {
            return;
        }
        self.states.fetch_add(1, Ordering::Relaxed);
    }

    /// [`note_state`](BudgetGuard::note_state) with the metrics mirror
    /// batched into `tally` instead of bumped on the collector — the
    /// form the sequential hot loops use (one atomic per state instead
    /// of two plus a thread-local lookup).
    pub fn note_state_tallied(&self, tally: &CounterTally<'_>) {
        tally.bump(Counter::StatesVisited);
        if self.inert {
            return;
        }
        self.states.fetch_add(1, Ordering::Relaxed);
    }

    /// Should exploration stop? Checked cooperatively at every state
    /// visit: consults (in order) the recorded trip, the cancel token
    /// (every call — it is one atomic load, so an external cancellation
    /// stops the very next visit), the state cap, and — on an adaptive
    /// stride of at most `MAX_DEADLINE_STRIDE` calls — the wall
    /// clock. The first bound to trip wins and is remembered.
    #[must_use]
    pub fn should_stop(&self) -> bool {
        if self.inert {
            return false;
        }
        if self.tripped.load(Ordering::Relaxed) != 0 {
            return true;
        }
        if self.cancel.is_cancelled() {
            self.trip(TRIP_CANCELLED);
            return true;
        }
        if let Some(cap) = self.max_states {
            if self.states.load(Ordering::Relaxed) > cap {
                self.trip(TRIP_STATES);
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            let n = self.checks.fetch_add(1, Ordering::Relaxed);
            if n >= self.next_deadline_check.load(Ordering::Relaxed) {
                let elapsed = self.start.elapsed();
                if elapsed >= deadline {
                    self.trip(TRIP_WALL_CLOCK);
                    return true;
                }
                self.schedule_next_deadline_check(n, elapsed, deadline);
            }
        }
        false
    }

    /// Schedules the next wall-clock sample (see
    /// [`MAX_DEADLINE_STRIDE`]): measure the per-visit cost over the
    /// window since the previous sample, then aim the next sample
    /// halfway through the remaining time at that rate. The stride
    /// therefore shrinks geometrically as the deadline nears — with
    /// expensive visits it collapses to 1, bounding overshoot to about
    /// one visit's worth of work — while cheap visits plateau at the
    /// maximum stride. The very first sample uses a stride of 1, so the
    /// first real window is measured before any stride is trusted.
    /// Cross-worker races on the bookkeeping only perturb the stride,
    /// never the deadline itself.
    fn schedule_next_deadline_check(&self, n: usize, elapsed: Duration, deadline: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let last_n = self.last_check_n.swap(n, Ordering::Relaxed);
        let last_nanos = self.last_check_nanos.swap(nanos, Ordering::Relaxed);
        let window_visits = n.saturating_sub(last_n) as u64;
        let window_nanos = nanos.saturating_sub(last_nanos);
        let stride = if window_visits == 0 {
            // First sample: no window measured yet, stay conservative.
            1
        } else if window_nanos == 0 {
            // Visits too fast for the clock to register: sampling every
            // visit would be pure overhead.
            MAX_DEADLINE_STRIDE
        } else {
            let per_visit = (window_nanos / window_visits).max(1);
            let remaining =
                u64::try_from(deadline.saturating_sub(elapsed).as_nanos()).unwrap_or(u64::MAX);
            usize::try_from(remaining / (2 * per_visit))
                .unwrap_or(MAX_DEADLINE_STRIDE)
                .clamp(1, MAX_DEADLINE_STRIDE)
        };
        self.next_deadline_check
            .store(n.saturating_add(stride), Ordering::Relaxed);
    }

    /// Records that the interleaving-enumeration cap was hit (a *soft*
    /// truncation: the enumeration stops itself; other phases proceed).
    pub fn trip_interleaving_cap(&self) {
        self.metrics.bump(Counter::TripInterleavings);
        self.metrics.event("trip:interleaving_cap", 0);
        if !self.inert {
            self.soft_interleavings.store(true, Ordering::Release);
        }
    }

    /// Records that the per-execution action fuel cut a behaviour set
    /// (a *soft* truncation: the exact race and census phases proceed).
    pub fn trip_action_bound(&self) {
        self.metrics.bump(Counter::TripActions);
        self.metrics.event("trip:action_bound", 0);
        if !self.inert {
            self.soft_actions.store(true, Ordering::Release);
        }
    }

    fn trip(&self, code: u8) {
        // Counted per trip *signal* (not per winning reason), so the
        // stats show every cause that fired, first-winner or not.
        let (counter, label) = match code {
            TRIP_WALL_CLOCK => (Counter::TripWallClock, "trip:wall_clock"),
            TRIP_STATES => (Counter::TripStates, "trip:state_cap"),
            _ => (Counter::TripCancelled, "trip:cancelled"),
        };
        self.metrics.bump(counter);
        self.metrics.event(label, u64::from(code));
        if self.inert {
            return;
        }
        // First reason wins; later phases observe the same verdict.
        let _ = self
            .tripped
            .compare_exchange(0, code, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// Why the run is not exhaustive, if it is not: the first *hard*
    /// trip (which also stopped exploration), else a soft truncation
    /// (interleaving cap before action fuel).
    #[must_use]
    pub fn trip_reason(&self) -> Option<TruncationReason> {
        match self.tripped.load(Ordering::Acquire) {
            TRIP_WALL_CLOCK => {
                return Some(TruncationReason::BudgetExceeded(BudgetBound::WallClock))
            }
            TRIP_STATES => return Some(TruncationReason::BudgetExceeded(BudgetBound::States)),
            TRIP_CANCELLED => return Some(TruncationReason::Cancelled),
            _ => {}
        }
        if self.soft_interleavings.load(Ordering::Acquire) {
            return Some(TruncationReason::BudgetExceeded(BudgetBound::Interleavings));
        }
        if self.soft_actions.load(Ordering::Acquire) {
            return Some(TruncationReason::BudgetExceeded(BudgetBound::Actions));
        }
        None
    }

    /// Distinct states explored so far (all phases).
    #[must_use]
    pub fn states(&self) -> usize {
        self.states.load(Ordering::Relaxed)
    }

    /// Time since the guard was created.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for BudgetGuard {
    fn default() -> Self {
        BudgetGuard::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_degenerate_bounds() {
        assert!(Budget::unlimited().validate().is_ok());
        assert!(Budget::unlimited()
            .timeout(Duration::from_millis(1))
            .max_states(1)
            .validate()
            .is_ok());
        let zero_deadline = Budget::unlimited().timeout(Duration::ZERO);
        assert!(zero_deadline.validate().unwrap_err().contains("timeout"));
        let zero_states = Budget::unlimited().max_states(0);
        assert!(zero_states.validate().unwrap_err().contains("max-states"));
        let zero_interleavings = Budget::unlimited().max_interleavings(0);
        assert!(zero_interleavings
            .validate()
            .unwrap_err()
            .contains("max-interleavings"));
    }

    #[test]
    fn unlimited_guard_never_stops() {
        let g = BudgetGuard::unlimited();
        for _ in 0..10_000 {
            g.note_state();
            assert!(!g.should_stop());
        }
        assert_eq!(g.trip_reason(), None);
    }

    #[test]
    fn state_cap_trips_with_reason() {
        let g = BudgetGuard::new(&Budget::unlimited().max_states(10), CancelToken::new());
        for _ in 0..=10 {
            assert!(!g.should_stop());
            g.note_state();
        }
        assert!(g.should_stop());
        assert_eq!(
            g.trip_reason(),
            Some(TruncationReason::BudgetExceeded(BudgetBound::States))
        );
        // monotonic: stays tripped, reason stable
        assert!(g.should_stop());
        assert_eq!(
            g.trip_reason(),
            Some(TruncationReason::BudgetExceeded(BudgetBound::States))
        );
    }

    #[test]
    fn deadline_trips() {
        let g = BudgetGuard::new(
            &Budget::unlimited().timeout(Duration::ZERO),
            CancelToken::new(),
        );
        // The stride means the very first call already reads the clock.
        assert!(g.should_stop());
        assert_eq!(
            g.trip_reason(),
            Some(TruncationReason::BudgetExceeded(BudgetBound::WallClock))
        );
    }

    #[test]
    fn deadline_overshoot_is_bounded_for_expensive_visits() {
        // Visits cost ~1 ms each. A fixed 64-call stride would sample
        // the clock next at visit 64 and overrun this 30 ms deadline by
        // ~35 ms; the adaptive stride must trip within a few visits of
        // the deadline instead.
        let deadline = Duration::from_millis(30);
        let g = BudgetGuard::new(&Budget::unlimited().timeout(deadline), CancelToken::new());
        let start = Instant::now();
        while !g.should_stop() {
            g.note_state();
            std::thread::sleep(Duration::from_millis(1));
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "guard never tripped"
            );
        }
        assert_eq!(
            g.trip_reason(),
            Some(TruncationReason::BudgetExceeded(BudgetBound::WallClock))
        );
        let overshoot = start.elapsed().saturating_sub(deadline);
        assert!(
            overshoot < Duration::from_millis(15),
            "tripped {overshoot:?} past the deadline — expected the \
             adaptive stride to bound overshoot to about one visit"
        );
    }

    #[test]
    fn cancellation_stops_the_very_next_visit() {
        // The cancel token must be consulted on every call — never
        // stride-sampled — even while the deadline machinery is active.
        let token = CancelToken::new();
        let g = BudgetGuard::new(
            &Budget::unlimited().timeout(Duration::from_secs(3600)),
            token.clone(),
        );
        for _ in 0..100 {
            assert!(!g.should_stop());
            g.note_state();
        }
        token.cancel();
        assert!(g.should_stop());
        assert_eq!(g.trip_reason(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn cancellation_wins_over_later_bounds() {
        let token = CancelToken::new();
        let g = BudgetGuard::new(&Budget::unlimited().max_states(0), token.clone());
        token.cancel();
        assert!(g.should_stop());
        assert_eq!(g.trip_reason(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn first_trip_wins() {
        let g = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
        g.trip_interleaving_cap();
        g.trip_action_bound();
        assert_eq!(
            g.trip_reason(),
            Some(TruncationReason::BudgetExceeded(BudgetBound::Interleavings))
        );
    }

    #[test]
    fn displays() {
        assert_eq!(Completeness::Complete.to_string(), "complete");
        assert_eq!(
            Completeness::Truncated {
                reason: TruncationReason::BudgetExceeded(BudgetBound::WallClock)
            }
            .to_string(),
            "truncated: budget exceeded (wall-clock deadline)"
        );
        assert_eq!(TruncationReason::Cancelled.to_string(), "cancelled");
    }
}
