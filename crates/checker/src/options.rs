//! The unified analysis configuration — one builder-style type carrying
//! every knob of the checker pipeline: the read-value domain, the
//! extraction/exploration/elimination bounds, the interleaving cap and
//! the worker count for the parts of the pipeline that fan out.
//!
//! [`Analysis`] carries the engine-level
//! [`ExploreOptions`](transafety_lang::ExploreOptions) and projects
//! [`ExploreLimits`](transafety_interleaving::ExploreLimits) via its
//! `explore` field and [`Analysis::limits`].

use std::time::Duration;

use transafety_interleaving::{
    available_jobs, Behaviours, Budget, BudgetGuard, CancelToken, Completeness, ExploreLimits,
    ExploreMetrics, ExploreStats, RaceWitness,
};
use transafety_lang::{
    Bounded, ExploreOptions, ExtractOptions, MemoryModel, ModelExplorer, ModelRaceWitness, Program,
    ProgramExplorer, ScModel, ScheduleStep,
};
use transafety_traces::{Domain, MemoryModelKind};
use transafety_transform::EliminationOptions;
use transafety_tso::{explain, Explanation, PsoModel, TsoModel};

use crate::{DrfVerdict, Refinement};

/// Bounds, domains and parallelism used by every checker entry point.
///
/// Build one fluently and either pass it to the theorem checkers
/// ([`drf_guarantee`](crate::drf_guarantee), …) or call
/// [`run`](Analysis::run) for a one-shot whole-program report:
///
/// # Example
///
/// ```
/// use transafety_checker::Analysis;
/// use transafety_lang::parse_program;
/// use transafety_traces::Domain;
///
/// let program = parse_program("volatile v; v := 1; || r0 := v; print r0;")?.program;
/// let report = Analysis::new()
///     .jobs(2)
///     .max_interleavings(1_000_000)
///     .domain(Domain::zero_to(1))
///     .run(&program);
/// assert!(report.is_data_race_free());
/// assert!(report.behaviours.complete);
/// assert!(report.completeness.is_complete());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// The finite read-value domain for traceset extraction and
    /// wildcard-instance enumeration.
    pub domain: Domain,
    /// Bounds for traceset extraction.
    pub extract: ExtractOptions,
    /// Bounds for direct program exploration.
    pub explore: ExploreOptions,
    /// Bounds for the semantic elimination witness search.
    pub elimination: EliminationOptions,
    /// The memory model the exploration engines run under. The default
    /// [`MemoryModelKind::Sc`] is the paper's baseline semantics;
    /// [`Tso`](MemoryModelKind::Tso) and [`Pso`](MemoryModelKind::Pso)
    /// run the census, the §8 explanation and
    /// [`behaviours`](Analysis::behaviours) on the buffered operational
    /// machines of §8. Their race phase is the SC race search: a program
    /// races on those machines iff it races under SC (§5, §8), and the
    /// SC search is reduced and exact on loops. Its witness is lifted to
    /// the machine, every store flushed right after it is buffered (see
    /// [`MemoryModel::lift_sc_witness`](transafety_lang::MemoryModel::lift_sc_witness)).
    /// The SC-first rule carries over to the behaviours in
    /// [`run`](Analysis::run) and [`guarantee`](Analysis::guarantee): a
    /// program the race phase proves race free has the same behaviours
    /// on the machines as under SC, so its set comes from the SC
    /// behaviour search, flagged bounded wherever a bound cut that
    /// search. A racy program's set comes from the buffered engine.
    /// All budgets and metrics apply uniformly; each backend
    /// negotiates its own partial-order reduction (see
    /// [`MemoryModel::reduced_moves`](transafety_lang::MemoryModel::reduced_moves)).
    pub model: MemoryModelKind,
    /// Worker threads, `1` by default. The verdict phases and the
    /// census run the sequential engine at every value; higher values
    /// fan `classify`'s traceset extractions and the no-thin-air
    /// closure scan out over up to that many threads
    /// ([`parallel_map`](transafety_interleaving::par::parallel_map)).
    /// Results are identical either way.
    pub jobs: usize,
    /// Resource budget for the analysis: wall-clock deadline, interned
    /// state cap and the interleaving-enumeration cap. Exceeding any
    /// bound is reported as truncation, never silently.
    pub budget: Budget,
    /// Collect exploration metrics (counters, phase timings, event
    /// trace) into [`AnalysisReport::stats`]. Off by default: disabled
    /// metrics are a handful of untaken branches on the hot paths and
    /// the report carries an all-zero [`ExploreStats`]. Never affects
    /// verdicts, behaviours or witnesses.
    pub metrics: bool,
}

impl Default for Analysis {
    fn default() -> Self {
        Analysis {
            domain: Domain::default(),
            extract: ExtractOptions::default(),
            explore: ExploreOptions::default(),
            elimination: EliminationOptions::default(),
            model: MemoryModelKind::Sc,
            jobs: 1,
            budget: Budget::default(),
            metrics: false,
        }
    }
}

impl Analysis {
    /// A default configuration (sequential, default domain and bounds).
    #[must_use]
    pub fn new() -> Self {
        Analysis::default()
    }

    /// A configuration with the given read-value domain.
    #[must_use]
    pub fn with_domain(domain: Domain) -> Self {
        Analysis {
            domain,
            ..Analysis::default()
        }
    }

    /// Sets the read-value domain.
    #[must_use]
    pub fn domain(mut self, domain: Domain) -> Self {
        self.domain = domain;
        self
    }

    /// Selects the memory model the analysis explores under (the
    /// `drfcheck --model` flag). See [`Analysis::model`](Analysis#structfield.model).
    #[must_use]
    pub fn model(mut self, model: MemoryModelKind) -> Self {
        self.model = model;
        self
    }

    /// Sets the worker count (clamped to at least 1).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Uses every available core (`std::thread::available_parallelism`).
    #[must_use]
    pub fn auto_jobs(self) -> Self {
        let jobs = available_jobs();
        self.jobs(jobs)
    }

    /// Sets the whole resource budget at once.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the wall-clock deadline for the whole analysis.
    #[must_use]
    pub fn timeout(mut self, deadline: Duration) -> Self {
        self.budget.deadline = Some(deadline);
        self
    }

    /// Sets the explored-state cap (an approximate memory budget).
    #[must_use]
    pub fn max_states(mut self, max: usize) -> Self {
        self.budget.max_states = Some(max);
        self
    }

    /// Sets the interleaving-enumeration cap.
    #[must_use]
    pub fn max_interleavings(mut self, max: usize) -> Self {
        self.budget.max_interleavings = max;
        self
    }

    /// Sets the per-execution action bound for direct exploration.
    #[must_use]
    pub fn max_actions(mut self, max: usize) -> Self {
        self.explore.max_actions = max;
        self
    }

    /// Sets the silent-step bound between two actions of one thread.
    #[must_use]
    pub fn max_tau(mut self, max: usize) -> Self {
        self.explore.max_tau = max;
        self
    }

    /// Enables or disables the dynamic partial-order reduction
    /// (default on). With POR the searches explore one canonical
    /// interleaving of commuting thread-local actions; verdicts and
    /// behaviour sets are unchanged, only `states_explored` shrinks.
    /// Loops are handled by a size-decreasing cycle proviso (ample
    /// moves must shrink the remaining code, so a cycle of ample moves
    /// is impossible), and the buffered models additionally reduce
    /// commuting flushes during the behaviour phase; `por(false)`
    /// forces the full unreduced exploration everywhere (the
    /// `drfcheck --no-por` escape hatch).
    #[must_use]
    pub fn por(mut self, enabled: bool) -> Self {
        self.explore.por = enabled;
        self
    }

    /// Enables or disables the await-aware stutter reduction (default
    /// on). With it, a failed re-read inside a recognised spin-await
    /// loop is collapsed into a single stutter state with value-change
    /// wakeup, and a program whose only loops are awaits is explored
    /// without an action bound — busy-wait programs get complete
    /// verdicts instead of budget-truncated ones. Verdicts and
    /// behaviour sets are unchanged wherever the unreduced exploration
    /// completes; the race phase never collapses, so spin-read race
    /// witnesses are unaffected. `awaits(false)` forces the unreduced
    /// behaviour (the `drfcheck --no-await` escape hatch).
    #[must_use]
    pub fn awaits(mut self, enabled: bool) -> Self {
        self.explore.awaits = enabled;
        self
    }

    /// Enables or disables metrics collection (default off). See
    /// [`Analysis::metrics`](Analysis#structfield.metrics).
    #[must_use]
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// The interleaving-level limits this configuration projects to
    /// (for calling [`Explorer`](transafety_interleaving::Explorer)
    /// directly).
    #[must_use]
    pub fn limits(&self) -> ExploreLimits {
        ExploreLimits {
            max_interleavings: self.budget.max_interleavings,
        }
    }

    /// Runs the single-program analysis — behaviour evaluation and the
    /// race search — on the sequential engine at every
    /// [`jobs`](Analysis::jobs), under [`budget`](Analysis::budget).
    /// These two phases answer the paper's questions (is the program
    /// DRF, what can it print); the unreduced reachable-state census is
    /// a separate operation, [`census`](Analysis::census), that a
    /// caller asks for.
    ///
    /// Under SC the behaviours are evaluated first. Under TSO/PSO the SC
    /// race search runs first, and the behaviours of a program it proves
    /// race free are its SC behaviours (the SC-first rule of
    /// [`model`](Analysis#structfield.model)): the buffered engine runs
    /// only on a racy program, or on one whose race search a state cap,
    /// deadline or cancellation cut short. When a bound cuts the SC
    /// behaviour search, the partial SC set is reported, flagged
    /// bounded; SC ⊆ TSO ⊆ PSO, so every behaviour in it is real. The
    /// race search spends the shared budget first, so under a state cap
    /// or deadline the behaviour phase gets only what it left.
    #[must_use]
    pub fn run(&self, program: &Program) -> AnalysisReport {
        self.run_with_cancel(program, CancelToken::new())
    }

    /// [`run`](Analysis::run) with an externally held [`CancelToken`]:
    /// cancelling the token (from a signal handler, a watchdog thread,
    /// another task…) stops the analysis at the next cooperative check
    /// and the report comes back
    /// [`Truncated`](Completeness::Truncated) instead of the process
    /// hanging or dying.
    ///
    /// Exceeding a budget bound or being cancelled produces a report
    /// that says exactly how far the analysis got and what stopped it.
    /// The verdict phases run on the calling thread, so a panic inside
    /// them is not caught here; callers that must survive one (the
    /// batch service, the fuzz driver) wrap the call in `catch_unwind`.
    #[must_use]
    pub fn run_with_cancel(&self, program: &Program, cancel: CancelToken) -> AnalysisReport {
        let report = self.governed(cancel, |guard| {
            with_model(program, self.model, VerdictPhases(&self.explore), guard)
        });
        let (behaviours, witness) = report.output;
        let (race, race_schedule) = witness.map(|w| (w.witness, w.schedule)).unzip();
        let verdict = if race.is_some() {
            // A witness in hand is conclusive no matter what was cut
            // short afterwards.
            Verdict::Racy
        } else if report.completeness.is_complete() {
            Verdict::DrfProven
        } else {
            Verdict::Unknown
        };
        AnalysisReport {
            behaviours,
            race,
            race_schedule,
            model: report.model,
            jobs: report.jobs,
            completeness: report.completeness,
            verdict,
            states_explored: report.states_explored,
            elapsed: report.elapsed,
            stats: report.stats,
        }
    }

    /// Every output sequence of the program's executions under the
    /// configured model, with the completeness flag of the bounded
    /// exploration, from the model's own engine: under TSO/PSO the
    /// buffered one, whether or not the program races. It is the oracle
    /// of the behaviour phase of [`run`](Analysis::run), which answers
    /// a race free program from the SC search instead (see
    /// [`model`](Analysis#structfield.model)); wherever both complete
    /// they report the same set.
    #[must_use]
    pub fn behaviours(&self, program: &Program) -> PhaseReport<Bounded<Behaviours>> {
        self.behaviours_with_cancel(program, CancelToken::new())
    }

    /// [`behaviours`](Analysis::behaviours) with an externally held
    /// [`CancelToken`], as in [`run_with_cancel`](Analysis::run_with_cancel).
    #[must_use]
    pub fn behaviours_with_cancel(
        &self,
        program: &Program,
        cancel: CancelToken,
    ) -> PhaseReport<Bounded<Behaviours>> {
        self.governed(cancel, |guard| {
            with_model(program, self.model, BehaviourPhase(&self.explore), guard)
        })
    }

    /// The race phase of [`run`](Analysis::run) on its own: a race
    /// witness with its per-model schedule, or `None`. A `None` proves
    /// freedom only when the report is
    /// [`Complete`](Completeness::Complete). Under every model the
    /// search is the SC one (see [`Analysis::model`](Analysis#structfield.model)).
    #[must_use]
    pub fn races(&self, program: &Program) -> PhaseReport<Option<ModelRaceWitness>> {
        self.races_with_cancel(program, CancelToken::new())
    }

    /// [`races`](Analysis::races) with an externally held
    /// [`CancelToken`], as in [`run_with_cancel`](Analysis::run_with_cancel).
    #[must_use]
    pub fn races_with_cancel(
        &self,
        program: &Program,
        cancel: CancelToken,
    ) -> PhaseReport<Option<ModelRaceWitness>> {
        self.governed(cancel, |guard| {
            with_model(program, self.model, RacePhase(&self.explore), guard)
        })
    }

    /// Counts the distinct reachable model states (under TSO/PSO buffer
    /// contents count too) on the sequential engine at every
    /// [`jobs`](Analysis::jobs), under [`budget`](Analysis::budget).
    /// The walk is unreduced by design — the count is a diagnostic of
    /// the state space, not of any reduction — so it is typically the
    /// costliest phase, and [`run`](Analysis::run) never performs it.
    #[must_use]
    pub fn census(&self, program: &Program) -> CensusReport {
        self.census_with_cancel(program, CancelToken::new())
    }

    /// [`census`](Analysis::census) with an externally held
    /// [`CancelToken`], with the same graceful-exit contract as
    /// [`run_with_cancel`](Analysis::run_with_cancel): a truncated
    /// count is a lower bound and says which bound stopped it.
    #[must_use]
    pub fn census_with_cancel(&self, program: &Program, cancel: CancelToken) -> CensusReport {
        self.governed(cancel, |guard| {
            with_model(program, self.model, Census(&self.explore), guard)
        })
    }

    /// The §8 check under the configured model: is every behaviour of
    /// the program an SC behaviour of some program in the closure (up
    /// to `depth` rewrite steps) of the rules the model subsumes? See
    /// [`transafety_tso::explain`]. Under SC the fragment holds only
    /// the trace-preserving commutations and nothing is relaxed.
    #[must_use]
    pub fn explain(&self, program: &Program, depth: usize) -> PhaseReport<Explanation> {
        self.explain_with_cancel(program, depth, CancelToken::new())
    }

    /// [`explain`](Analysis::explain) with an externally held
    /// [`CancelToken`], as in [`run_with_cancel`](Analysis::run_with_cancel).
    #[must_use]
    pub fn explain_with_cancel(
        &self,
        program: &Program,
        depth: usize,
        cancel: CancelToken,
    ) -> PhaseReport<Explanation> {
        self.governed(cancel, |guard| {
            with_model(program, self.model, Explain(&self.explore, depth), guard)
        })
    }

    /// The DRF guarantee (Theorems 1–4) for `original ⇒ transformed`
    /// under the configured model: if the original is data race free,
    /// the transformed program may add no behaviour and must stay data
    /// race free. Both programs run under one budget governor: the
    /// original's race search (a witness ends the check,
    /// [`OriginalRacy`](DrfVerdict::OriginalRacy)) and behaviours, then
    /// the transformed program's behaviours, compared by
    /// [`Refinement::compare`], and its race search.
    ///
    /// A verdict is only as strong as the searches behind it: freedom
    /// from races needs a completed search, and a refinement verdict
    /// follows [`Refinement::compare`]; anything weaker is
    /// [`Inconclusive`](DrfVerdict::Inconclusive).
    #[must_use]
    pub fn guarantee(&self, transformed: &Program, original: &Program) -> PhaseReport<DrfVerdict> {
        self.guarantee_with_cancel(transformed, original, CancelToken::new())
    }

    /// [`guarantee`](Analysis::guarantee) with an externally held
    /// [`CancelToken`], as in [`run_with_cancel`](Analysis::run_with_cancel).
    #[must_use]
    pub fn guarantee_with_cancel(
        &self,
        transformed: &Program,
        original: &Program,
        cancel: CancelToken,
    ) -> PhaseReport<DrfVerdict> {
        self.governed(cancel, |guard| {
            match with_model(original, self.model, OriginalPhases(&self.explore), guard) {
                Ok(behaviours) => {
                    let task = TransformedPhases(&self.explore, &behaviours);
                    with_model(transformed, self.model, task, guard)
                }
                Err(verdict) => verdict,
            }
        })
    }

    /// Runs `work` under a fresh budget governor (with a live metrics
    /// collector exactly when [`metrics`](Analysis::metrics) is on) and
    /// reports how far it got. The work runs its tasks through
    /// [`with_model`], one program at a time, all on the one guard.
    fn governed<T>(
        &self,
        cancel: CancelToken,
        work: impl FnOnce(&BudgetGuard) -> T,
    ) -> PhaseReport<T> {
        let collector = if self.metrics {
            ExploreMetrics::collector()
        } else {
            ExploreMetrics::disabled()
        };
        let guard = BudgetGuard::with_metrics(&self.budget, cancel, collector.clone());
        let output = work(&guard);
        let mut stats = collector.snapshot();
        if stats.enabled {
            // Stamp the backend onto a *live* collector only: a
            // metrics-off run must keep returning pristine default
            // stats (the observer invariant).
            stats.model = self.model.as_str().to_string();
        }
        PhaseReport {
            output,
            model: self.model,
            jobs: self.jobs,
            completeness: match guard.trip_reason() {
                None => Completeness::Complete,
                Some(reason) => Completeness::Truncated { reason },
            },
            states_explored: guard.states(),
            elapsed: guard.elapsed(),
            stats,
        }
    }
}

/// One operation over whichever [`ModelExplorer`] the configured
/// [`MemoryModelKind`] selects (see [`with_model`]), run under `guard`.
trait ModelTask {
    type Output;
    fn run<M: MemoryModel>(self, mx: &ModelExplorer<'_, M>, guard: &BudgetGuard) -> Self::Output;
}

/// The single dispatch from [`MemoryModelKind`] to a backend.
fn with_model<T: ModelTask>(
    program: &Program,
    model: MemoryModelKind,
    task: T,
    guard: &BudgetGuard,
) -> T::Output {
    match model {
        MemoryModelKind::Sc => {
            let ex = ProgramExplorer::new(program);
            let sc = ScModel::new(&ex);
            task.run(&ModelExplorer::new(&sc), guard)
        }
        MemoryModelKind::Tso => {
            let tso = TsoModel::new(program);
            task.run(&ModelExplorer::new(&tso), guard)
        }
        MemoryModelKind::Pso => {
            let pso = PsoModel::new(program);
            task.run(&ModelExplorer::new(&pso), guard)
        }
    }
}

/// The verdict path on one shared budget governor: [`phases`], with the
/// race search always run.
struct VerdictPhases<'a>(&'a ExploreOptions);

impl ModelTask for VerdictPhases<'_> {
    type Output = (Bounded<Behaviours>, Option<ModelRaceWitness>);

    fn run<M: MemoryModel>(self, mx: &ModelExplorer<'_, M>, guard: &BudgetGuard) -> Self::Output {
        phases(mx, self.0, guard, |_| true)
    }
}

/// The behaviour evaluation alone, on the model's own engine: the
/// buffered one under TSO/PSO, whatever the program's races.
struct BehaviourPhase<'a>(&'a ExploreOptions);

impl ModelTask for BehaviourPhase<'_> {
    type Output = Bounded<Behaviours>;

    fn run<M: MemoryModel>(self, mx: &ModelExplorer<'_, M>, guard: &BudgetGuard) -> Self::Output {
        mx.behaviours_governed(self.0, guard)
    }
}

/// The race search alone.
struct RacePhase<'a>(&'a ExploreOptions);

impl ModelTask for RacePhase<'_> {
    type Output = Option<ModelRaceWitness>;

    fn run<M: MemoryModel>(self, mx: &ModelExplorer<'_, M>, guard: &BudgetGuard) -> Self::Output {
        race_phase(mx, self.0, guard)
    }
}

/// The race phase under every model: the SC race search on the model's
/// own [`explorer`](MemoryModel::explorer), whose witness the model
/// lifts to its own machine ([`MemoryModel::lift_sc_witness`]). A
/// program races on the TSO/PSO machines iff it races under SC (§5,
/// §8), and the SC search is reduced and exact on loops where the
/// buffered one is neither. Under SC this is the search on `mx` itself,
/// and the lift is the identity.
fn race_phase<M: MemoryModel>(
    mx: &ModelExplorer<'_, M>,
    opts: &ExploreOptions,
    guard: &BudgetGuard,
) -> Option<ModelRaceWitness> {
    let sc = ScModel::new(mx.model().explorer());
    let witness = ModelExplorer::new(&sc).race_witness_governed(opts, guard)?;
    Some(mx.model().lift_sc_witness(witness))
}

/// The behaviours of a program the race phase proved race free: the SC
/// behaviour search on the model's own [`explorer`](MemoryModel::explorer),
/// whose configuration cache the race search filled. A DRF program has
/// the same behaviours on the TSO/PSO machines as under SC (§5, §8).
/// Where a bound cuts the search, its partial set is the answer, flagged
/// bounded: SC ⊆ TSO ⊆ PSO, so every behaviour in it is real. Under SC
/// this is the search on `mx` itself.
fn sc_behaviours<M: MemoryModel>(
    mx: &ModelExplorer<'_, M>,
    opts: &ExploreOptions,
    guard: &BudgetGuard,
) -> Bounded<Behaviours> {
    ModelExplorer::new(&ScModel::new(mx.model().explorer())).behaviours_governed(opts, guard)
}

/// One program's behaviours and race witness on one governor, and the
/// one place that orders the two phases. Under SC: the behaviour
/// evaluation, then the race search if `then_races` accepts the set.
/// Under TSO/PSO: the race search, then [`sc_behaviours`] on a program
/// it proved race free, and the model's own engine on a racy one or
/// after a hard bound (states, deadline, cancellation) cut the search.
fn phases<M: MemoryModel>(
    mx: &ModelExplorer<'_, M>,
    opts: &ExploreOptions,
    guard: &BudgetGuard,
    then_races: impl FnOnce(&Bounded<Behaviours>) -> bool,
) -> (Bounded<Behaviours>, Option<ModelRaceWitness>) {
    if mx.model().kind() == MemoryModelKind::Sc {
        let behaviours = mx.behaviours_governed(opts, guard);
        let race = if then_races(&behaviours) {
            race_phase(mx, opts, guard)
        } else {
            None
        };
        return (behaviours, race);
    }
    let race = race_phase(mx, opts, guard);
    let behaviours = if race.is_some() || guard.should_stop() {
        mx.behaviours_governed(opts, guard)
    } else {
        sc_behaviours(mx, opts, guard)
    };
    (behaviours, race)
}

/// The original side of a guarantee check: the race search, then the
/// [`sc_behaviours`] of a program it proved race free. `Err` is the
/// verdict when the search found a race or was cut short.
struct OriginalPhases<'a>(&'a ExploreOptions);

impl ModelTask for OriginalPhases<'_> {
    type Output = Result<Bounded<Behaviours>, DrfVerdict>;

    fn run<M: MemoryModel>(self, mx: &ModelExplorer<'_, M>, guard: &BudgetGuard) -> Self::Output {
        if let Some(w) = race_phase(mx, self.0, guard) {
            return Err(DrfVerdict::OriginalRacy(Box::new(w)));
        }
        if guard.trip_reason().is_some() {
            return Err(DrfVerdict::Inconclusive);
        }
        Ok(sc_behaviours(mx, self.0, guard))
    }
}

/// The transformed side of a guarantee check against the original's
/// behaviours: its [`phases`], with the race search run under SC only
/// if the behaviours refine. The verdict puts a new behaviour or an
/// inconclusive comparison before a race.
struct TransformedPhases<'a>(&'a ExploreOptions, &'a Bounded<Behaviours>);

impl ModelTask for TransformedPhases<'_> {
    type Output = DrfVerdict;

    fn run<M: MemoryModel>(self, mx: &ModelExplorer<'_, M>, guard: &BudgetGuard) -> DrfVerdict {
        let TransformedPhases(explore, original) = self;
        let (behaviours, race) = phases(mx, explore, guard, |b| {
            Refinement::compare(b, original) == Refinement::Refines
        });
        match Refinement::compare(&behaviours, original) {
            Refinement::NewBehaviour(b) => DrfVerdict::NewBehaviour(b),
            Refinement::Inconclusive => DrfVerdict::Inconclusive,
            Refinement::Refines => match race {
                Some(w) => DrfVerdict::RaceIntroduced(Box::new(w)),
                None if guard.trip_reason().is_none() => DrfVerdict::Holds,
                None => DrfVerdict::Inconclusive,
            },
        }
    }
}

/// The unreduced reachable-state census.
struct Census<'a>(&'a ExploreOptions);

impl ModelTask for Census<'_> {
    type Output = usize;

    fn run<M: MemoryModel>(self, mx: &ModelExplorer<'_, M>, guard: &BudgetGuard) -> usize {
        mx.count_reachable_states_governed(self.0, guard)
    }
}

/// The §8 explanation of the program over the model's rule fragment,
/// with closures up to the given depth.
struct Explain<'a>(&'a ExploreOptions, usize);

impl ModelTask for Explain<'_> {
    type Output = Explanation;

    fn run<M: MemoryModel>(self, mx: &ModelExplorer<'_, M>, guard: &BudgetGuard) -> Explanation {
        let Explain(explore, depth) = self;
        explain(mx, depth, explore, guard)
    }
}

/// The three-valued outcome of the race analysis: a bounded checker
/// must be able to say "I don't know" when its budget ran out, or a
/// truncated search would be laundered into a soundness claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// A data race witness was found. Conclusive: a witness is a real
    /// execution, however the search was bounded.
    Racy,
    /// The exhaustive search completed without finding a race: the
    /// program is data race free under the configured domain. Only ever
    /// reported alongside [`Completeness::Complete`].
    DrfProven,
    /// The search was truncated before it could prove freedom — the
    /// program may or may not race.
    Unknown,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Racy => "racy",
            Verdict::DrfProven => "data race free (proven)",
            Verdict::Unknown => "unknown (analysis truncated)",
        })
    }
}

/// The result of [`Analysis::run`]: everything the checker can say
/// about one program under the configured bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// The behaviours of the program's executions under the configured
    /// model (with the completeness flag of the bounded exploration).
    /// Under TSO/PSO, a program the race phase proved race free reports
    /// its SC behaviours, which are its behaviours on the machine (see
    /// [`Analysis::run`]).
    pub behaviours: Bounded<Behaviours>,
    /// A data race witness, if the program races.
    pub race: Option<RaceWitness>,
    /// The full per-model schedule reaching the race, including the
    /// model-internal steps (store-buffer flushes under TSO/PSO) that
    /// the [`RaceWitness`] event path abstracts away. `Some` exactly
    /// when [`race`](AnalysisReport::race) is.
    pub race_schedule: Option<Vec<ScheduleStep>>,
    /// The memory model the analysis explored under.
    pub model: MemoryModelKind,
    /// The configured worker count (the phases run sequentially at
    /// every count).
    pub jobs: usize,
    /// Did the analysis run to completion, and if not, which bound
    /// stopped it?
    pub completeness: Completeness,
    /// The three-valued race verdict.
    pub verdict: Verdict,
    /// States counted by the budget governor across all phases (`0`
    /// when the budget is unlimited — the inert governor skips the
    /// bookkeeping).
    pub states_explored: usize,
    /// Wall-clock time the analysis took.
    pub elapsed: Duration,
    /// Exploration metrics, populated when the analysis ran with
    /// [`Analysis::metrics`]`(true)`; all-zero (with
    /// [`ExploreStats::enabled`] `false`) otherwise.
    pub stats: ExploreStats,
}

impl AnalysisReport {
    /// Is the program data race free (§3)?
    ///
    /// `true` merely means *no witness was found*; consult
    /// [`verdict`](AnalysisReport::verdict) to distinguish a proof
    /// ([`Verdict::DrfProven`]) from a truncated search
    /// ([`Verdict::Unknown`]).
    #[must_use]
    pub fn is_data_race_free(&self) -> bool {
        self.race.is_none()
    }
}

/// The result of one governed operation of [`Analysis`] —
/// [`behaviours`](Analysis::behaviours), [`races`](Analysis::races),
/// [`census`](Analysis::census) or [`explain`](Analysis::explain): the
/// operation's output and how far it got.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseReport<T> {
    /// What the operation computed. Partial when
    /// [`completeness`](PhaseReport::completeness) is truncated (a
    /// census count is then a lower bound).
    pub output: T,
    /// The memory model the operation explored under.
    pub model: MemoryModelKind,
    /// The configured worker count (the phases run sequentially at
    /// every count).
    pub jobs: usize,
    /// Did the operation run to completion, and if not, which bound
    /// stopped it?
    pub completeness: Completeness,
    /// States counted by the budget governor (`0` when the budget is
    /// unlimited).
    pub states_explored: usize,
    /// Wall-clock time the operation took.
    pub elapsed: Duration,
    /// Exploration metrics, populated when the operation ran with
    /// [`Analysis::metrics`]`(true)`.
    pub stats: ExploreStats,
}

/// The result of [`Analysis::census`]: the number of distinct reachable
/// program states (model states: under TSO/PSO this counts buffer
/// contents too).
pub type CensusReport = PhaseReport<usize>;

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_lang::parse_program;
    use transafety_traces::Value;

    #[test]
    fn builder_round_trip() {
        let a = Analysis::new()
            .jobs(8)
            .max_interleavings(123)
            .max_actions(17)
            .max_tau(99)
            .domain(Domain::zero_to(3));
        assert_eq!(a.jobs, 8);
        assert_eq!(a.budget.max_interleavings, 123);
        assert_eq!(a.limits().max_interleavings, 123);
        assert_eq!(a.explore.max_actions, 17);
        assert_eq!(a.explore.max_tau, 99);
        assert_eq!(a.domain.len(), 4);
    }

    #[test]
    fn budget_builders_compose() {
        let a = Analysis::new()
            .timeout(Duration::from_secs(7))
            .max_states(42)
            .max_interleavings(9);
        assert_eq!(a.budget.deadline, Some(Duration::from_secs(7)));
        assert_eq!(a.budget.max_states, Some(42));
        assert_eq!(a.budget.max_interleavings, 9);
        let b = Analysis::new().budget(Budget::unlimited().max_states(5));
        assert_eq!(b.budget.max_states, Some(5));
    }

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(Analysis::new().jobs(0).jobs, 1);
        assert!(Analysis::new().auto_jobs().jobs >= 1);
    }

    #[test]
    fn run_report_is_jobs_independent() {
        let program = parse_program("x := 1; || r0 := x; print r0;")
            .unwrap()
            .program;
        let seq = Analysis::new().run(&program);
        let par = Analysis::new().jobs(4).run(&program);
        assert_eq!(seq.behaviours, par.behaviours);
        assert_eq!(
            seq.race, par.race,
            "witness is canonical, not schedule-dependent"
        );
        assert_eq!(
            Analysis::new().census(&program).output,
            Analysis::new().jobs(4).census(&program).output
        );
        assert_eq!(seq.completeness, par.completeness);
        assert_eq!(seq.verdict, par.verdict);
        assert!(!par.is_data_race_free());
        assert_eq!(par.verdict, Verdict::Racy);
        assert!(par.behaviours.value.contains(&vec![Value::new(1)]));
    }

    #[test]
    fn state_cap_yields_truncated_unknown() {
        let program = parse_program("x := 1; || r0 := x; r1 := x; print r0;")
            .unwrap()
            .program;
        let report = Analysis::new().max_states(1).run(&program);
        assert!(!report.completeness.is_complete());
        assert_ne!(report.verdict, Verdict::DrfProven);
        assert!(report.states_explored >= 1);
    }

    #[test]
    fn pre_cancelled_token_truncates_immediately() {
        use transafety_interleaving::TruncationReason;
        let program = parse_program("x := 1; || r0 := x; print r0;")
            .unwrap()
            .program;
        let token = CancelToken::new();
        token.cancel();
        let report = Analysis::new().run_with_cancel(&program, token);
        assert_eq!(
            report.completeness,
            Completeness::Truncated {
                reason: TruncationReason::Cancelled
            }
        );
        assert_eq!(report.verdict, Verdict::Unknown);
    }

    #[test]
    fn model_dispatch_reaches_tso_behaviours() {
        // Store buffering: the 0,0 outcome exists under TSO, not SC.
        let program = parse_program("x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;")
            .unwrap()
            .program;
        let zz = vec![Value::new(0), Value::new(0)];
        let sc = Analysis::new().run(&program);
        let tso = Analysis::new().model(MemoryModelKind::Tso).run(&program);
        assert_eq!(sc.model, MemoryModelKind::Sc);
        assert_eq!(tso.model, MemoryModelKind::Tso);
        assert!(sc.behaviours.complete && tso.behaviours.complete);
        assert!(!sc.behaviours.value.contains(&zz));
        assert!(tso.behaviours.value.contains(&zz));
        // Model states include buffer contents, so the census grows.
        let sc_census = Analysis::new().census(&program);
        let tso_census = Analysis::new().model(MemoryModelKind::Tso).census(&program);
        assert_eq!(tso_census.model, MemoryModelKind::Tso);
        assert!(tso_census.output > sc_census.output);
    }

    #[test]
    fn race_schedule_accompanies_the_witness() {
        let racy = parse_program("x := 1; || r0 := x; print r0;")
            .unwrap()
            .program;
        for model in MemoryModelKind::ALL {
            let report = Analysis::new().model(model).run(&racy);
            assert_eq!(report.verdict, Verdict::Racy, "{model}");
            let schedule = report.race_schedule.as_ref().expect("racy ⇒ schedule");
            assert!(!schedule.is_empty());
        }
        let drf = parse_program("volatile v; v := 1; || r0 := v; print r0;")
            .unwrap()
            .program;
        let report = Analysis::new().model(MemoryModelKind::Tso).run(&drf);
        assert!(report.is_data_race_free());
        assert!(report.race_schedule.is_none());
    }

    #[test]
    fn stats_record_the_model() {
        let program = parse_program("x := 1; || r0 := x; print r0;")
            .unwrap()
            .program;
        let report = Analysis::new()
            .metrics(true)
            .model(MemoryModelKind::Pso)
            .run(&program);
        assert_eq!(report.stats.model, "pso");
        assert!(report.stats.to_json().contains("\"model\":\"pso\""));
        let sc = Analysis::new().metrics(true).run(&program);
        assert_eq!(sc.stats.model, "sc");
    }

    #[test]
    fn run_records_no_census_phase() {
        let program = parse_program("x := 1; || r0 := x; r1 := x; print r1;")
            .unwrap()
            .program;
        for model in MemoryModelKind::ALL {
            for jobs in [1, 2] {
                let report = Analysis::new()
                    .metrics(true)
                    .model(model)
                    .jobs(jobs)
                    .run(&program);
                assert_eq!(report.stats.census_nanos, 0, "{model} jobs={jobs}");
                assert!(
                    report
                        .stats
                        .events
                        .iter()
                        .all(|e| !e.label.contains("census")),
                    "{model} jobs={jobs}: census event in {:?}",
                    report.stats.events
                );
                assert!(report.stats.race_search_nanos > 0, "{model} jobs={jobs}");
            }
        }
    }

    #[test]
    fn census_is_its_own_governed_phase() {
        let program = parse_program("x := 1; || r0 := x; r1 := x; print r1;")
            .unwrap()
            .program;
        let census = Analysis::new().metrics(true).census(&program);
        assert!(census.completeness.is_complete());
        assert!(census.output > 1);
        assert!(census.stats.census_nanos > 0);
        assert_eq!(census.stats.behaviour_eval_nanos, 0);
        assert_eq!(census.stats.race_search_nanos, 0);
        assert_eq!(census.stats.model, "sc");
        let capped = Analysis::new().max_states(1).census(&program);
        assert!(!capped.completeness.is_complete());
        assert!(capped.output < census.output);
    }
}
