//! Equivalence of the `ScModel` trait backend and the historical SC
//! pipeline: selecting `--model sc` explicitly must be bit-identical to
//! the default analysis — verdict, race witness, behaviour set, state
//! census (`Analysis::census`) and governor accounting — on the whole
//! litmus corpus and on hundreds of generated programs, sequentially
//! and in parallel. The `MemoryModel` redesign is an API seam, never a
//! semantics change.

mod support;

use support::{capped_budget, configs, seeds, JOBS};
use transafety::checker::Analysis;
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
    assert_eq!(
        default.reachable_states, explicit.reachable_states,
        "{what}: census"
    );
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
