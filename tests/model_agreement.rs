//! Equivalence of the `ScModel` trait backend and the historical SC
//! pipeline: selecting `--model sc` explicitly must be bit-identical to
//! the default analysis — verdict, race witness, behaviour set, state
//! census (`Analysis::census`) and governor accounting — on the whole
//! litmus corpus and on hundreds of generated programs, sequentially
//! and in parallel. The `MemoryModel` redesign is an API seam, never a
//! semantics change. Under every model, `Analysis`'s single-phase entry
//! points must answer as `run` does, and `Analysis::explain` as the
//! per-model §8 checks it replaced. Under TSO and PSO the race phase is
//! the SC search with a lifted witness, pinned here against the
//! buffered race search it replaced. A program that search proves race
//! free reports its SC behaviour set, pinned here against the buffered
//! behaviour engine. Every model steps its threads through its program
//! explorer's one configuration table, so one model serving every phase
//! of an analysis must answer as fresh models do. SC is the buffered
//! machine whose buffers stay empty, so on a program whose locations
//! are all volatile the buffered behaviour engines must walk SC's state
//! graph and count as SC does.

mod support;

use support::{capped_budget, configs, seeds, DEFAULT_SEEDS, JOBS};
use transafety::checker::Analysis;
use transafety::interleaving::{Behaviours, BudgetGuard, Event, ExploreMetrics, ExploreStats};
use transafety::lang::{
    parse_program, Bounded, ExploreOptions, MemoryModel, ModelExplorer, ModelRaceWitness, Program,
    ProgramExplorer, ScModel, Stmt,
};
use transafety::litmus::{corpus, random_program, GeneratorConfig};
use transafety::traces::{Loc, MemoryModelKind, ThreadId};
use transafety::tso::{explain, PsoModel, TsoModel};
use transafety::{
    AnalysisReport, Budget, BudgetBound, CancelToken, CensusReport, Completeness, TruncationReason,
};

/// Everything in the report except the wall-clock time must coincide.
/// The governor's raw state tally is only compared on the sequential
/// driver: with parallel workers two *identical* runs already disagree
/// on it (racing workers tally states in timing-dependent counts), so
/// it is no part of the determinism contract at `jobs > 1`.
fn assert_identical(default: &AnalysisReport, explicit: &AnalysisReport, jobs: usize, what: &str) {
    assert_eq!(default.verdict, explicit.verdict, "{what}: verdict");
    assert_eq!(default.race, explicit.race, "{what}: race witness");
    assert_eq!(
        default.race_schedule, explicit.race_schedule,
        "{what}: race schedule"
    );
    assert_eq!(
        default.behaviours, explicit.behaviours,
        "{what}: behaviours"
    );
    if jobs == 1 {
        assert_eq!(
            default.states_explored, explicit.states_explored,
            "{what}: governor accounting"
        );
    }
    assert_eq!(
        default.completeness, explicit.completeness,
        "{what}: completeness"
    );
    assert_eq!(default.model, MemoryModelKind::Sc, "{what}: default model");
    assert_eq!(
        explicit.model,
        MemoryModelKind::Sc,
        "{what}: explicit model"
    );
}

fn run_pair(program: &Program, jobs: usize, budget: &Budget, what: &str) {
    let default = Analysis::new().jobs(jobs).budget(*budget).run(program);
    let explicit = Analysis::new()
        .jobs(jobs)
        .budget(*budget)
        .model(MemoryModelKind::Sc)
        .run(program);
    assert_identical(&default, &explicit, jobs, what);
    let default = Analysis::new().jobs(jobs).budget(*budget).census(program);
    let explicit = Analysis::new()
        .jobs(jobs)
        .budget(*budget)
        .model(MemoryModelKind::Sc)
        .census(program);
    assert_census_identical(&default, &explicit, jobs, what);
}

/// [`assert_identical`] for the census, which runs on a governor of its
/// own.
fn assert_census_identical(
    default: &CensusReport,
    explicit: &CensusReport,
    jobs: usize,
    what: &str,
) {
    assert_eq!(default.output, explicit.output, "{what}: census");
    if jobs == 1 {
        assert_eq!(
            default.states_explored, explicit.states_explored,
            "{what}: census governor accounting"
        );
    }
    assert_eq!(
        default.completeness, explicit.completeness,
        "{what}: census completeness"
    );
    assert_eq!(default.model, MemoryModelKind::Sc, "{what}: default model");
    assert_eq!(
        explicit.model,
        MemoryModelKind::Sc,
        "{what}: explicit model"
    );
}

#[test]
fn sc_backend_is_bit_identical_on_the_litmus_corpus() {
    let budget = Budget::unlimited();
    for litmus in corpus() {
        let program = litmus.parse().program;
        for jobs in JOBS {
            run_pair(
                &program,
                jobs,
                &budget,
                &format!("litmus {} jobs={jobs}", litmus.name),
            );
        }
    }
}

#[test]
fn sc_backend_is_bit_identical_on_generated_programs() {
    let configs = configs();
    let budget = capped_budget();
    for seed in 0..seeds() {
        let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
        let program = random_program(seed, config);
        for jobs in JOBS {
            run_pair(&program, jobs, &budget, &format!("seed {seed} jobs={jobs}"));
        }
    }
}

#[test]
fn trait_engine_matches_the_legacy_entry_points() {
    // The ungoverned `ProgramExplorer` API (which compiled code in the
    // wild still calls) and a hand-built `ModelExplorer` over `ScModel`
    // must agree action for action.
    let opts = ExploreOptions::default();
    for litmus in corpus() {
        let program = litmus.parse().program;
        let ex = ProgramExplorer::new(&program);
        let model = ScModel::new(&ex);
        let mx = ModelExplorer::new(&model);
        assert_eq!(
            ex.behaviours(&opts),
            mx.behaviours(&opts),
            "{}: behaviours",
            litmus.name
        );
        assert_eq!(
            ex.race_witness(&opts),
            mx.race_witness(&opts).map(|w| w.witness),
            "{}: race witness",
            litmus.name
        );
        assert_eq!(
            ex.count_reachable_states(&opts),
            mx.count_reachable_states(&opts),
            "{}: census",
            litmus.name
        );
    }
}

/// `behaviours` and `races` on their own answer as the two phases of
/// `run` do. Under SC the behaviour phase runs first in `run`, so it
/// sees the same fresh governor and must agree even when the state cap
/// trips; under TSO/PSO the race phase runs first and `run` answers a
/// race free program from the SC behaviour search, which must still
/// agree with the buffered engine on this corpus. The second phase
/// inherits the first one's state count, so the races are compared
/// where `run` completed.
fn assert_phases_agree_with_run(program: &Program, model: MemoryModelKind, what: &str) {
    let analysis = Analysis::new()
        .model(model)
        .budget(Budget::unlimited().max_states(200_000));
    let run = analysis.run(program);
    let behaviours = analysis.behaviours(program);
    assert_eq!(behaviours.output, run.behaviours, "{what}: behaviours");
    if run.completeness.is_complete() {
        let races = analysis.races(program);
        assert!(races.completeness.is_complete(), "{what}: races complete");
        let (race, schedule) = races.output.map(|w| (w.witness, w.schedule)).unzip();
        assert_eq!(race, run.race, "{what}: race witness");
        assert_eq!(schedule, run.race_schedule, "{what}: race schedule");
    }
}

#[test]
fn phase_entry_points_agree_with_run_under_every_model() {
    let configs = configs();
    let generated = (0..seeds()).map(|seed| {
        let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
        (format!("seed {seed}"), random_program(seed, config))
    });
    let litmus = corpus()
        .into_iter()
        .map(|l| (format!("litmus {}", l.name), l.parse().program));
    for (name, program) in litmus.chain(generated) {
        for model in MemoryModelKind::ALL {
            assert_phases_agree_with_run(&program, model, &format!("{name} {model}"));
        }
    }
}

/// What the separate TSO and PSO explanation functions reported for
/// one litmus program before they became the model-parametric
/// `Analysis::explain`: closure size, relaxed, explained, and the
/// [`fingerprint`] of the three behaviour sets.
type Recorded = (usize, bool, bool, u64);

/// Every litmus program of at most 14 statements at depth 3, as
/// `(name, under TSO, under PSO)`. All of them completed; the one
/// unexplained row, `intro-original` under PSO, is recorded as found.
#[rustfmt::skip]
const RECORDED_EXPLANATIONS: &[(&str, Recorded, Recorded)] = &[
    ("intro-original", (17, false, true, 0x68f17d540c592763), (21, true, false, 0x2d67276ba92a554f)),
    ("intro-constant-propagated", (17, false, true, 0x990bb4e1d66a13d6), (21, false, true, 0x990bb4e1d66a13d6)),
    ("intro-volatile", (8, false, true, 0x68f17d540c592763), (8, false, true, 0x68f17d540c592763)),
    ("fig1-original", (15, false, true, 0x92dfe9d18c97a9c2), (23, true, true, 0xc8816930d2c9e2a2)),
    ("fig1-transformed", (3, false, true, 0xf34c9a3a30b3da06), (5, false, true, 0xf34c9a3a30b3da06)),
    ("fig2-original", (2, false, true, 0xd85951b6d9439281), (2, false, true, 0xd85951b6d9439281)),
    ("fig2-transformed", (3, false, true, 0x9dfc7a4462750f12), (3, false, true, 0x9dfc7a4462750f12)),
    ("fig3-a", (21, false, true, 0xaa7d0a71214d5972), (21, false, true, 0xaa7d0a71214d5972)),
    ("fig3-b", (29, false, true, 0xaa7d0a71214d5972), (29, false, true, 0xaa7d0a71214d5972)),
    ("fig3-c", (8, false, true, 0x334e9c8f5fdeaaa6), (8, false, true, 0x334e9c8f5fdeaaa6)),
    ("fig5-volatile", (3, false, true, 0x9dfc7a4462750f12), (5, false, true, 0x9dfc7a4462750f12)),
    ("fig5-transformed", (1, false, true, 0xd85951b6d9439281), (1, false, true, 0xd85951b6d9439281)),
    ("oota", (1, false, true, 0xd85951b6d9439281), (1, false, true, 0xd85951b6d9439281)),
    ("section4-worked", (15, false, true, 0x990bb4e1d66a13d6), (15, false, true, 0x990bb4e1d66a13d6)),
    ("sb", (8, true, true, 0xbdf55bc8b8de3b0a), (8, true, true, 0xbdf55bc8b8de3b0a)),
    ("sb-volatile", (1, false, true, 0xe331b342fb2e6a82), (1, false, true, 0xe331b342fb2e6a82)),
    ("mp", (3, false, true, 0xc25dfa73e6811e2d), (5, true, true, 0xf0a75cfe01cdbead)),
    ("mp-volatile", (3, false, true, 0x990bb4e1d66a13d6), (3, false, true, 0x990bb4e1d66a13d6)),
    ("mp-spin", (3, false, true, 0x990bb4e1d66a13d6), (3, false, true, 0x990bb4e1d66a13d6)),
    ("lb", (4, false, true, 0x29122b88b35bfe0e), (4, false, true, 0x29122b88b35bfe0e)),
    ("iriw", (1, false, true, 0xb0be7cc95222176e), (1, false, true, 0xb0be7cc95222176e)),
    ("corr", (3, false, true, 0xc25dfa73e6811e2d), (3, false, true, 0xc25dfa73e6811e2d)),
    ("locked-counter", (1, false, true, 0x9dfc7a4462750f12), (1, false, true, 0x9dfc7a4462750f12)),
    ("racy-counter", (1, false, true, 0x9dfc7a4462750f12), (1, false, true, 0x9dfc7a4462750f12)),
    ("dekker-core", (1, false, true, 0xd85951b6d9439281), (1, false, true, 0xd85951b6d9439281)),
    ("redundant-load-pair", (2, false, true, 0xd85951b6d9439281), (2, false, true, 0xd85951b6d9439281)),
    ("store-forward", (3, false, true, 0x990bb4e1d66a13d6), (3, false, true, 0x990bb4e1d66a13d6)),
    ("overwritten-store", (3, false, true, 0x6251340b21e014d4), (3, false, true, 0x6251340b21e014d4)),
    ("sb-locked", (21, false, true, 0x1da0fa417dcd5b8a), (21, false, true, 0x1da0fa417dcd5b8a)),
    ("wrc", (1, false, true, 0xc25dfa73e6811e2d), (1, false, true, 0xc25dfa73e6811e2d)),
    ("mp-two-payloads", (9, false, true, 0x84299f5a39d4aca7), (12, false, true, 0x84299f5a39d4aca7)),
    ("roach-motel", (3, false, true, 0x9dfc7a4462750f12), (3, false, true, 0x9dfc7a4462750f12)),
];

/// FNV-1a over the `Debug` rendering of the model, SC and closure-union
/// behaviour sets.
fn fingerprint(sets: [&Behaviours; 3]) -> u64 {
    let rendered = format!("{sets:?}");
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn explain_matches_the_recorded_per_model_explanations() {
    let small: Vec<_> = corpus()
        .into_iter()
        .filter(|l| l.parse().program.threads().iter().flatten().count() <= 14)
        .collect();
    assert_eq!(small.len(), RECORDED_EXPLANATIONS.len());
    for (litmus, &(name, tso, pso)) in small.iter().zip(RECORDED_EXPLANATIONS) {
        assert_eq!(litmus.name, name);
        let program = litmus.parse().program;
        for (model, recorded) in [(MemoryModelKind::Tso, tso), (MemoryModelKind::Pso, pso)] {
            let report = Analysis::new().model(model).explain(&program, 3);
            let e = &report.output;
            assert!(report.completeness.is_complete() && e.complete, "{name}");
            assert_eq!(e.model, model, "{name}");
            let got = (
                e.closure_size,
                e.relaxed,
                e.explained,
                fingerprint([&e.behaviours, &e.sc, &e.closure_union]),
            );
            assert_eq!(got, recorded, "{name} {model}: {e:?}");
        }
    }
}

/// Replays a lifted schedule move by move through the machine's own
/// `moves` from `initial()`: every step must be an enabled move, and
/// the schedule's actions must be the witness execution.
fn assert_schedule_replays<M: MemoryModel>(machine: &M, witness: &ModelRaceWitness, what: &str) {
    let opts = ExploreOptions::default();
    let mut state = machine.initial();
    for (i, step) in witness.schedule.iter().enumerate() {
        let mut truncated = false;
        let next = ModelExplorer::new(machine)
            .moves(&state, &opts, &mut truncated)
            .into_iter()
            .find(|mv| mv.thread == step.thread && mv.label == step.label);
        state = next
            .unwrap_or_else(|| panic!("{what}: step {i} ({step}) is not enabled"))
            .next;
    }
    let actions: Vec<Event> = witness
        .schedule
        .iter()
        .filter_map(|s| {
            let action = s.label.action()?;
            Some(Event::new(ThreadId::new(s.thread as u32), action))
        })
        .collect();
    assert_eq!(
        actions,
        witness.witness.execution.events(),
        "{what}: schedule actions"
    );
}

/// The deterministic counters of a run, without the model stamp, the
/// wall times and the timestamped event log.
fn counters(stats: &ExploreStats) -> ExploreStats {
    ExploreStats {
        model: String::new(),
        events: Vec::new(),
        graph_build_nanos: 0,
        behaviour_eval_nanos: 0,
        race_search_nanos: 0,
        census_nanos: 0,
        pool_drain_nanos: 0,
        ..stats.clone()
    }
}

/// The buffered race search, the race phase's oracle, against
/// `Analysis::races` on one buffered machine. Returns whether the
/// verdicts were compared and whether the program races.
fn assert_sc_first_race_phase<M: MemoryModel>(
    machine: &M,
    program: &Program,
    sc: &ExploreStats,
    what: &str,
) -> (bool, bool) {
    let model = machine.kind();
    let budget = Budget::unlimited().max_states(200_000);
    let analysis = Analysis::new().model(model).budget(budget).metrics(true);
    let races = analysis.races(program);
    let guard = BudgetGuard::new(&budget, CancelToken::new());
    let opts = ExploreOptions::default();
    let oracle = ModelExplorer::new(machine).race_witness_governed(&opts, &guard);
    // A buffered witness is conclusive; a `None` proves freedom only
    // when neither a bound nor the search fuel cut the search short.
    let oracle_exact = guard.trip_reason().is_none()
        && ModelExplorer::new(machine).search_fuel(&opts) == usize::MAX;
    let compared = races.completeness.is_complete() && (oracle.is_some() || oracle_exact);
    if compared {
        assert_eq!(
            races.output.is_some(),
            oracle.is_some(),
            "{what}: race verdict differs from the buffered search"
        );
    }
    if let Some(w) = &races.output {
        assert_schedule_replays(machine, w, what);
    }
    if races.completeness.is_complete() {
        assert_eq!(counters(&races.stats), *sc, "{what}: race-phase counters");
    }
    (compared, races.output.is_some())
}

#[test]
fn sc_first_race_phase_matches_the_buffered_search() {
    let shapes = [
        GeneratorConfig::default(),
        GeneratorConfig::drf(),
        GeneratorConfig::with_volatiles(),
        GeneratorConfig::with_loops(),
        GeneratorConfig::with_awaits(),
    ];
    let generated = (0..seeds()).map(|seed| {
        let shape = &shapes[usize::try_from(seed).unwrap() % shapes.len()];
        (format!("seed {seed}"), random_program(seed, shape))
    });
    let litmus = corpus()
        .into_iter()
        .map(|l| (format!("litmus {}", l.name), l.parse().program));
    let (mut cases, mut compared, mut racy) = (0, 0, 0);
    for (name, program) in litmus.chain(generated) {
        let sc = Analysis::new()
            .budget(Budget::unlimited().max_states(200_000))
            .metrics(true)
            .races(&program);
        let sc = counters(&sc.stats);
        for outcome in [
            assert_sc_first_race_phase(
                &TsoModel::new(&program),
                &program,
                &sc,
                &format!("{name} tso"),
            ),
            assert_sc_first_race_phase(
                &PsoModel::new(&program),
                &program,
                &sc,
                &format!("{name} pso"),
            ),
        ] {
            cases += 1;
            compared += usize::from(outcome.0);
            racy += usize::from(outcome.1);
        }
    }
    // Neither side of the comparison may be vacuous.
    assert!(compared * 4 >= cases * 3, "{compared} of {cases} compared");
    assert!(
        racy * 4 >= cases && racy * 4 <= cases * 3,
        "{racy} of {cases} racy"
    );
}

/// The per-execution action bound of the second pass of
/// [`sc_first_behaviour_phase_matches_the_buffered_engine`]: low enough
/// that the bound cuts many race free programs, which the default bound
/// almost never does on this corpus.
const LOW_ACTION_BOUND: usize = 6;

/// States a behaviour engine visits on a fresh governor under
/// `analysis`'s budget, with its answer and whether only the action bound
/// (if anything) cut it.
fn behaviour_states<M: MemoryModel>(
    machine: &M,
    analysis: &Analysis,
) -> (Bounded<Behaviours>, u64, bool) {
    let collector = ExploreMetrics::collector();
    let guard = BudgetGuard::with_metrics(&analysis.budget, CancelToken::new(), collector.clone());
    let set = ModelExplorer::new(machine).behaviours_governed(&analysis.explore, &guard);
    let cut_by_fuel_only = matches!(
        guard.trip_reason(),
        None | Some(TruncationReason::BudgetExceeded(BudgetBound::Actions))
    );
    (set, collector.snapshot().states_visited, cut_by_fuel_only)
}

/// The buffered behaviour engine, the behaviour phase's oracle, against
/// `Analysis::run` on one buffered machine. Wherever the engine, called
/// directly, completes or only the action bound cuts it, and the run's
/// race phase decided the program, `run` must report the engine's set
/// and completeness flag, including where the action bound cut both
/// the SC search and the engine. Its states must be the race phase's,
/// then the SC search's on a race free program or the buffered engine's
/// on a racy one. Returns whether the sets were compared, and whether
/// the compared program is race free and its set complete.
fn assert_sc_first_behaviour_phase<M: MemoryModel>(
    machine: &M,
    program: &Program,
    max_actions: usize,
    what: &str,
) -> (bool, bool, bool) {
    let analysis = Analysis::new()
        .model(machine.kind())
        .budget(Budget::unlimited().max_states(200_000))
        .max_actions(max_actions)
        .metrics(true);
    let (oracle, oracle_states, oracle_cut_by_fuel_only) = behaviour_states(machine, &analysis);
    let races = analysis.races(program);
    let drf = races.output.is_none() && races.completeness.is_complete();
    let run = analysis.run(program);
    // The run's phases share one state cap, which the oracle had alone.
    let run_cut_by_fuel_only = !matches!(
        run.completeness,
        Completeness::Truncated {
            reason: TruncationReason::Cancelled
                | TruncationReason::BudgetExceeded(BudgetBound::States | BudgetBound::WallClock)
        }
    );
    let compared =
        oracle_cut_by_fuel_only && run_cut_by_fuel_only && (drf || races.output.is_some());
    if compared {
        assert_eq!(run.behaviours, oracle, "{what}: behaviour set");
        assert_eq!(run.race.is_some(), !drf, "{what}: race verdict");
        let phase_states = if drf {
            behaviour_states(&ScModel::new(machine.explorer()), &analysis).1
        } else {
            oracle_states
        };
        assert_eq!(
            run.stats.states_visited,
            races.stats.states_visited + phase_states,
            "{what}: states visited"
        );
    }
    (compared, drf, oracle.complete)
}

#[test]
fn sc_first_behaviour_phase_matches_the_buffered_engine() {
    let shapes = [
        GeneratorConfig::default(),
        GeneratorConfig::drf(),
        GeneratorConfig::with_volatiles(),
        GeneratorConfig::with_loops(),
        GeneratorConfig::with_awaits(),
    ];
    let generated = (0..seeds()).map(|seed| {
        let shape = &shapes[usize::try_from(seed).unwrap() % shapes.len()];
        (format!("seed {seed}"), random_program(seed, shape))
    });
    let litmus = corpus()
        .into_iter()
        .map(|l| (format!("litmus {}", l.name), l.parse().program));
    let (mut cases, mut compared, mut drf_complete, mut drf_bounded, mut racy) = (0, 0, 0, 0, 0);
    for (name, program) in litmus.chain(generated) {
        for max_actions in [ExploreOptions::default().max_actions, LOW_ACTION_BOUND] {
            let what = format!("{name} max_actions={max_actions}");
            for (compared_here, drf, complete) in [
                assert_sc_first_behaviour_phase(
                    &TsoModel::new(&program),
                    &program,
                    max_actions,
                    &format!("{what} tso"),
                ),
                assert_sc_first_behaviour_phase(
                    &PsoModel::new(&program),
                    &program,
                    max_actions,
                    &format!("{what} pso"),
                ),
            ] {
                cases += 1;
                if compared_here {
                    compared += 1;
                    match (drf, complete) {
                        (true, true) => drf_complete += 1,
                        (true, false) => drf_bounded += 1,
                        (false, _) => racy += 1,
                    }
                }
            }
        }
    }
    eprintln!(
        "compared {compared} of {cases} cases: {drf_complete} race free and complete, \
         {drf_bounded} race free and cut by the action bound, {racy} racy"
    );
    // Every kind of comparison must occur; only generated loop programs
    // are cut by the action bound, so that needs the default seed count.
    assert!(compared * 4 >= cases * 3, "{compared} of {cases} compared");
    assert!(drf_complete * 4 >= cases, "{drf_complete} of {cases}");
    assert!(racy * 4 >= cases, "{racy} of {cases}");
    if seeds() >= DEFAULT_SEEDS {
        assert!(drf_bounded > 0, "{drf_bounded} of {cases}");
    }
}

/// The [`counters`] of a phase that may run on a configuration table an
/// earlier phase filled, without the interner's collision count: states
/// hash their threads' cfg ids, which a shared table numbers in the order
/// the phases first meet each configuration, so which probes collide
/// depends on that numbering. Every count of states, moves, probes and
/// hits is a function of the state graph alone and is kept.
fn shared_counters(stats: &ExploreStats) -> ExploreStats {
    ExploreStats {
        intern_collisions: 0,
        ..counters(stats)
    }
}

/// Runs `phase` on its own metrics guard under `analysis`'s budget, and
/// returns its output with its [`shared_counters`].
fn governed<T>(analysis: &Analysis, phase: impl FnOnce(&BudgetGuard) -> T) -> (T, ExploreStats) {
    let collector = ExploreMetrics::collector();
    let guard = BudgetGuard::with_metrics(&analysis.budget, CancelToken::new(), collector.clone());
    let output = phase(&guard);
    (output, shared_counters(&collector.snapshot()))
}

/// One model serves behaviours, races, explain and census in sequence,
/// as one analysis would, and each phase must answer, and count, as the
/// same phase of `Analysis` on a fresh model does. The phases share the
/// model's configuration table, so a phase that saw ids interned by an
/// earlier one, or a table rebuilt under it, would show here.
fn assert_shared_model_matches_fresh<M: MemoryModel>(model: &M, program: &Program, what: &str) {
    let analysis = Analysis::new().model(model.kind()).metrics(true);
    let opts = &analysis.explore;
    let mx = ModelExplorer::new(model);

    let (behaviours, stats) = governed(&analysis, |g| mx.behaviours_governed(opts, g));
    let fresh = analysis.behaviours(program);
    assert_eq!(behaviours, fresh.output, "{what}: behaviours");
    assert_eq!(
        stats,
        shared_counters(&fresh.stats),
        "{what}: behaviour counters"
    );

    let (race, stats) = governed(&analysis, |g| {
        let sc = ScModel::new(model.explorer());
        let witness = ModelExplorer::new(&sc).race_witness_governed(opts, g)?;
        Some(mx.lift_sc_witness(witness))
    });
    let fresh = analysis.races(program);
    assert_eq!(race, fresh.output, "{what}: race witness");
    assert_eq!(
        stats,
        shared_counters(&fresh.stats),
        "{what}: race counters"
    );

    let (explanation, stats) = governed(&analysis, |g| explain(&mx, 3, opts, g));
    let fresh = analysis.explain(program, 3);
    assert_eq!(explanation, fresh.output, "{what}: explanation");
    assert_eq!(
        stats,
        shared_counters(&fresh.stats),
        "{what}: explain counters"
    );

    let (census, stats) = governed(&analysis, |g| mx.count_reachable_states_governed(opts, g));
    let fresh = analysis.census(program);
    assert_eq!(census, fresh.output, "{what}: census");
    assert_eq!(
        stats,
        shared_counters(&fresh.stats),
        "{what}: census counters"
    );
}

#[test]
fn one_model_serves_every_phase_as_fresh_models_do() {
    for litmus in corpus() {
        let program = litmus.parse().program;
        let name = litmus.name;
        let ex = ProgramExplorer::new(&program);
        assert_shared_model_matches_fresh(&ScModel::new(&ex), &program, &format!("{name} sc"));
        assert_shared_model_matches_fresh(
            &TsoModel::new(&program),
            &program,
            &format!("{name} tso"),
        );
        assert_shared_model_matches_fresh(
            &PsoModel::new(&program),
            &program,
            &format!("{name} pso"),
        );
    }
}

/// The index offset [`all_volatile`] gives a normal location, so it
/// stays apart from the program's own volatile locations.
const VOLATILE_BASE: u32 = 1 << 16;

/// `program` with every location volatile. Nothing is ever buffered
/// then, so the TSO and PSO machines are the SC machine.
fn all_volatile(program: &Program) -> Program {
    fn loc(l: Loc) -> Loc {
        if l.is_volatile() {
            l
        } else {
            Loc::volatile(VOLATILE_BASE + l.index())
        }
    }
    fn stmt(s: &Stmt) -> Stmt {
        match s {
            Stmt::Store { loc: l, src } => Stmt::Store {
                loc: loc(*l),
                src: *src,
            },
            Stmt::Load { dst, loc: l } => Stmt::Load {
                dst: *dst,
                loc: loc(*l),
            },
            Stmt::Block(b) => Stmt::Block(b.iter().map(stmt).collect()),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => Stmt::If {
                cond: *cond,
                then_branch: Box::new(stmt(then_branch)),
                else_branch: Box::new(stmt(else_branch)),
            },
            Stmt::While { cond, body } => Stmt::While {
                cond: *cond,
                body: Box::new(stmt(body)),
            },
            other => other.clone(),
        }
    }
    Program::new(
        program
            .threads()
            .iter()
            .map(|t| t.iter().map(stmt).collect())
            .collect(),
    )
}

/// The counters of a behaviour phase that depend on the state graph and
/// the reduction alone. The interner's probe counts are left out: SC and
/// the buffered machines encode equal states differently.
fn graph_counters(stats: &ExploreStats) -> [u64; 7] {
    [
        stats.states_visited,
        stats.moves_generated,
        stats.por_ample_hits,
        stats.por_full_expansions,
        stats.dpor_proviso_blocks,
        stats.await_collapsed,
        stats.await_wakeups,
    ]
}

/// SC is the buffered machine whose buffers stay empty. On a program
/// whose locations are all volatile nothing is ever buffered, so the
/// TSO and PSO behaviour engines must walk SC's state graph with SC's
/// reduction and await collapse: the same behaviour set, the same
/// completeness and the same graph counters.
#[test]
fn volatile_programs_explore_the_sc_graph_under_every_model() {
    let spin = "volatile flag; volatile a;
                a := 1; flag := 1; a := 2;
                || while (flag != 1) skip; r2 := a; print r2;
                || lock m; r3 := a; unlock m; print r3;";
    let shapes = [
        GeneratorConfig::default(),
        GeneratorConfig::drf(),
        GeneratorConfig::with_volatiles(),
        GeneratorConfig::with_loops(),
        GeneratorConfig::with_awaits(),
    ];
    let generated = (0..seeds()).map(|seed| {
        let shape = &shapes[usize::try_from(seed).unwrap() % shapes.len()];
        (format!("seed {seed}"), random_program(seed, shape))
    });
    let litmus = corpus()
        .into_iter()
        .map(|l| (format!("litmus {}", l.name), l.parse().program));
    let named = std::iter::once((
        "volatile spin".to_string(),
        parse_program(spin).unwrap().program,
    ));
    // A state cap only: a wall-clock bound could cut the runs at
    // different states.
    let budget = Budget::unlimited().max_states(200_000);
    let mut awaits = 0;
    for (name, program) in named.chain(litmus).chain(generated) {
        let program = all_volatile(&program);
        let run = |model| {
            Analysis::new()
                .model(model)
                .budget(budget)
                .metrics(true)
                .behaviours(&program)
        };
        let sc = run(MemoryModelKind::Sc);
        awaits += u64::from(sc.stats.await_collapsed > 0);
        for model in [MemoryModelKind::Tso, MemoryModelKind::Pso] {
            let buffered = run(model);
            let what = format!("{name} {model}");
            assert_eq!(buffered.output, sc.output, "{what}: behaviours");
            assert_eq!(
                buffered.completeness, sc.completeness,
                "{what}: completeness"
            );
            assert_eq!(
                graph_counters(&buffered.stats),
                graph_counters(&sc.stats),
                "{what}: graph counters"
            );
        }
    }
    assert!(awaits > 0, "no case collapsed an await");
}
