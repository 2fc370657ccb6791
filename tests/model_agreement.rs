//! Equivalence of the `ScModel` trait backend and the historical SC
//! pipeline: selecting `--model sc` explicitly must be bit-identical to
//! the default analysis — verdict, race witness, behaviour set, state
//! census (`Analysis::census`) and governor accounting — on the whole
//! litmus corpus and on hundreds of generated programs, sequentially
//! and in parallel. The `MemoryModel` redesign is an API seam, never a
//! semantics change. Under every model, `Analysis`'s single-phase entry
//! points must answer as `run` does, and `Analysis::explain` as the
//! per-model §8 checks it replaced.

mod support;

use support::{capped_budget, configs, seeds, JOBS};
use transafety::checker::Analysis;
use transafety::interleaving::Behaviours;
use transafety::lang::{ExploreOptions, ModelExplorer, Program, ProgramExplorer, ScModel};
use transafety::litmus::{corpus, random_program};
use transafety::traces::MemoryModelKind;
use transafety::{AnalysisReport, Budget, CensusReport};

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
/// `run` do. The behaviour phase runs first in `run`, so it sees the
/// same fresh governor and must agree even when the state cap trips;
/// the race phase of `run` inherits the behaviour phase's state count,
/// so the races are compared where `run` completed.
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
