//! Equivalence of the partial-order-reduced engine and the full
//! engine: with POR on vs off, the `Verdict`, the presence of a
//! `RaceWitness`, and the behaviour set must agree — on the whole
//! litmus corpus and on hundreds of generated programs, sequentially
//! and in parallel. POR is a pruning of redundant interleavings, never
//! of observable outcomes.

mod support;

use support::{capped_budget, configs_full as configs, seeds, JOBS};
use transafety::checker::Analysis;
use transafety::lang::{parse_program, Program};
use transafety::litmus::{corpus, random_program, GeneratorConfig};
use transafety::traces::MemoryModelKind;
use transafety::{AnalysisReport, Budget, Completeness, Verdict};

fn run(program: &Program, por: bool, jobs: usize, budget: &Budget) -> AnalysisReport {
    run_model(program, MemoryModelKind::Sc, por, jobs, budget)
}

fn run_model(
    program: &Program,
    model: MemoryModelKind,
    por: bool,
    jobs: usize,
    budget: &Budget,
) -> AnalysisReport {
    Analysis::new()
        .model(model)
        .jobs(jobs)
        .por(por)
        .budget(*budget)
        .run(program)
}

/// The contract when both engines finish: bit-identical observables.
fn assert_identical(reduced: &AnalysisReport, full: &AnalysisReport, what: &str) {
    assert_eq!(reduced.verdict, full.verdict, "{what}: verdict");
    assert_eq!(
        reduced.race.is_some(),
        full.race.is_some(),
        "{what}: race witness presence"
    );
    assert_eq!(reduced.behaviours, full.behaviours, "{what}: behaviours");
}

/// The contract that must hold even when a budget truncates one side:
/// no soundness inversion. A witness is conclusive, so `Racy` on one
/// side can never meet `DrfProven` on the other (the reduced execution
/// set is a subset of the full one), and no truncated run may claim a
/// proof.
fn assert_sound(reduced: &AnalysisReport, full: &AnalysisReport, what: &str) {
    for (r, tag) in [(reduced, "por"), (full, "no-por")] {
        if r.race.is_some() {
            assert_eq!(r.verdict, Verdict::Racy, "{what} [{tag}]");
        }
        if matches!(r.completeness, Completeness::Truncated { .. }) {
            assert_ne!(
                r.verdict,
                Verdict::DrfProven,
                "{what} [{tag}]: truncated run claimed a proof"
            );
        }
    }
    assert!(
        !(reduced.verdict == Verdict::Racy && full.verdict == Verdict::DrfProven),
        "{what}: POR found a race the full engine proved absent"
    );
    assert!(
        !(full.verdict == Verdict::Racy && reduced.verdict == Verdict::DrfProven),
        "{what}: POR laundered a racy program into a proof"
    );
}

#[test]
fn por_agrees_on_the_litmus_corpus() {
    let budget = Budget::unlimited();
    for litmus in corpus() {
        let program = litmus.parse().program;
        for jobs in JOBS {
            let what = format!("litmus {} jobs={jobs}", litmus.name);
            let reduced = run(&program, true, jobs, &budget);
            let full = run(&program, false, jobs, &budget);
            // The corpus is unbudgeted, so completeness differs only by
            // the deterministic fuel bound — identical on both sides.
            assert_eq!(reduced.completeness, full.completeness, "{what}");
            assert_identical(&reduced, &full, &what);
            assert!(
                reduced.states_explored <= full.states_explored,
                "{what}: POR explored more states ({} > {})",
                reduced.states_explored,
                full.states_explored
            );
        }
    }
}

#[test]
fn por_agrees_on_the_litmus_corpus_under_buffered_models() {
    let budget = capped_budget();
    for litmus in corpus() {
        let program = litmus.parse().program;
        for model in [MemoryModelKind::Tso, MemoryModelKind::Pso] {
            for jobs in JOBS {
                let what = format!("litmus {} model={model} jobs={jobs}", litmus.name);
                let reduced = run_model(&program, model, true, jobs, &budget);
                let full = run_model(&program, model, false, jobs, &budget);
                let both_complete = !matches!(reduced.completeness, Completeness::Truncated { .. })
                    && !matches!(full.completeness, Completeness::Truncated { .. });
                if both_complete {
                    assert_identical(&reduced, &full, &what);
                    // The race phase of the buffered models always runs
                    // on the full expansion, so with one worker the
                    // search is deterministic and the POR flag must not
                    // change the witness at all — not just its presence.
                    if jobs == 1 {
                        assert_eq!(reduced.race, full.race, "{what}: exact witness");
                    }
                }
                assert_sound(&reduced, &full, &what);
            }
        }
    }
}

#[test]
fn por_agrees_on_generated_programs_under_buffered_models() {
    let configs = configs();
    let budget = capped_budget();
    for seed in 0..seeds() {
        let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
        let program = random_program(seed, config);
        // Both models on every seed: with one model per seed, a shape
        // whose index has fixed parity only ever met one of them.
        for model in [MemoryModelKind::Tso, MemoryModelKind::Pso] {
            for jobs in JOBS {
                let what = format!("seed {seed} model={model} jobs={jobs}");
                let reduced = run_model(&program, model, true, jobs, &budget);
                let full = run_model(&program, model, false, jobs, &budget);
                let both_complete = !matches!(reduced.completeness, Completeness::Truncated { .. })
                    && !matches!(full.completeness, Completeness::Truncated { .. });
                if both_complete {
                    assert_identical(&reduced, &full, &what);
                    if jobs == 1 {
                        assert_eq!(reduced.race, full.race, "{what}: exact witness");
                    }
                }
                assert_sound(&reduced, &full, &what);
            }
        }
    }
}

/// The generator shapes of the sweep that found the buffered
/// reduction dropping behaviours: [`configs`] plus a 2×4 volatile shape
/// and a 3×4 default shape, picked by `seed % 8`.
fn forwarded_read_shapes() -> Vec<GeneratorConfig> {
    let mut out = configs();
    out.push(GeneratorConfig::with_volatiles());
    out.push(GeneratorConfig {
        threads: 3,
        ..GeneratorConfig::default()
    });
    out
}

/// Seeds of that sweep whose reduced tso and pso behaviour sets lost
/// 1 to 20 behaviours: the reduction treated a read forwarded from the
/// reader's own buffer as invisible, pruning the order in which the
/// reader flushes, a foreign write lands, and only then the read runs.
const FORWARDED_READ_SEEDS: [u64; 6] = [67, 187, 768, 1101, 2375, 2459];

/// The first program of that family, found by the benchmark's bless
/// step: under tso the reduced set was `{[], [0], [0, 0]}` and the
/// unreduced one also had `[0, 1]`.
const LOSES_A_BEHAVIOUR: &str = "\
l1 := r2; if (r2 != 1) r1 := l1; else { lock m0; r1 := l0; unlock m0; } print r1; r1 := l1;
|| r2 := 1; print r0; if (r1 == 1) r0 := 1; else if (r0 == 1) { lock m0; r0 := l0; unlock m0; }
   else { lock m0; l1 := r2; unlock m0; } r1 := 2;
";

#[test]
fn por_keeps_forwarded_read_behaviours_under_buffered_models() {
    let shapes = forwarded_read_shapes();
    let mut cases: Vec<(String, Program)> = FORWARDED_READ_SEEDS
        .iter()
        .map(|&seed| {
            let shape = &shapes[usize::try_from(seed % 8).unwrap()];
            (format!("seed {seed}"), random_program(seed, shape))
        })
        .collect();
    cases.push((
        "bless program".to_string(),
        parse_program(LOSES_A_BEHAVIOUR)
            .expect("valid program")
            .program,
    ));
    let budget = Budget::unlimited();
    for (name, program) in &cases {
        for model in [MemoryModelKind::Tso, MemoryModelKind::Pso] {
            let what = format!("{name} model={model}");
            let reduced = run_model(program, model, true, 1, &budget);
            let full = run_model(program, model, false, 1, &budget);
            assert!(
                reduced.behaviours.complete && full.behaviours.complete,
                "{what}: both behaviour phases must complete"
            );
            assert_identical(&reduced, &full, &what);
            assert_eq!(reduced.race, full.race, "{what}: exact witness");
        }
    }
}

#[test]
fn por_agrees_on_loop_bearing_programs() {
    // Hand-written loop-bearing probes: the historical implementation
    // disabled POR entirely on any program containing `while`, so these
    // pin the reduction staying on and agreeing. The spin loops have
    // unbounded executions, so the budget truncates — agreement is then
    // soundness plus verdict/witness equality where both sides finish.
    let probes = [
        // terminating: guarded one-shot loop next to an unsynchronised race
        "r0 := 0; while (r0 == 0) { x := 1; r0 := 1; } || y := 1; r1 := x; print r1;",
        // non-terminating spin consumer against a publishing producer
        "flag := 1; || while (flag != 1) skip; print 1;",
        // racy spin: the guard location is itself written without locks
        "x := 1; x := 2; || while (x == 0) skip; print 1;",
    ];
    let budget = capped_budget();
    for (i, src) in probes.iter().enumerate() {
        let program = transafety::lang::parse_program(src)
            .unwrap_or_else(|e| panic!("probe {i}: {e}"))
            .program;
        for model in MemoryModelKind::ALL {
            for jobs in JOBS {
                let what = format!("loop probe {i} model={model} jobs={jobs}");
                let reduced = run_model(&program, model, true, jobs, &budget);
                let full = run_model(&program, model, false, jobs, &budget);
                let both_complete = !matches!(reduced.completeness, Completeness::Truncated { .. })
                    && !matches!(full.completeness, Completeness::Truncated { .. });
                if both_complete {
                    assert_identical(&reduced, &full, &what);
                }
                assert_sound(&reduced, &full, &what);
            }
        }
    }
}

fn run_awaits(
    program: &Program,
    model: MemoryModelKind,
    awaits: bool,
    jobs: usize,
    budget: &Budget,
) -> AnalysisReport {
    Analysis::new()
        .model(model)
        .jobs(jobs)
        .awaits(awaits)
        .budget(*budget)
        .run(program)
}

fn load_program(rel: &str) -> Program {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
    transafety::lang::parse_program(&src)
        .unwrap_or_else(|e| panic!("{rel}: {e}"))
        .program
}

/// The spin corpus: hand-written busy-wait programs whose loops are all
/// recognised awaits, so the await-aware reduction must complete them
/// while the unreduced engine truncates at the action bound.
fn spin_corpus() -> Vec<(String, Program, Verdict)> {
    let mp_spin = transafety::litmus::by_name("mp-spin")
        .expect("mp-spin litmus exists")
        .parse()
        .program;
    let racy_spin = transafety::lang::parse_program(
        // Non-volatile spin flag: the guard reads race with the
        // publishing store, and the collapse must keep one failed
        // read adjacent to the write so the witness survives.
        "x := 1; flag := 1; || while (flag != 1) skip; r2 := x; print r2;",
    )
    .expect("racy spin parses")
    .program;
    vec![
        ("mp-spin".to_string(), mp_spin, Verdict::DrfProven),
        (
            "spinlock_handoff".to_string(),
            load_program("programs/spinlock_handoff.tsl"),
            Verdict::DrfProven,
        ),
        (
            "seqlock_reader".to_string(),
            load_program("programs/seqlock_reader.tsl"),
            Verdict::DrfProven,
        ),
        ("racy-spin".to_string(), racy_spin, Verdict::Racy),
    ]
}

#[test]
fn await_reduction_completes_and_agrees_on_the_spin_corpus() {
    let budget = capped_budget();
    for (name, program, expect) in spin_corpus() {
        for model in MemoryModelKind::ALL {
            for jobs in JOBS {
                let what = format!("spin {name} model={model} jobs={jobs}");
                let reduced = run_awaits(&program, model, true, jobs, &budget);
                let full = run_awaits(&program, model, false, jobs, &budget);
                // The headline claim: the collapse turns the budget-
                // truncated spin exploration into a complete verdict.
                assert!(
                    reduced.completeness.is_complete(),
                    "{what}: await-aware run truncated ({:?})",
                    reduced.completeness
                );
                assert_eq!(reduced.verdict, expect, "{what}: verdict");
                if expect == Verdict::Racy {
                    // The race phase never collapses, so the witness on
                    // the spinning read must survive the reduction.
                    assert!(reduced.race.is_some(), "{what}: witness lost");
                    assert_eq!(
                        reduced.race.is_some(),
                        full.race.is_some(),
                        "{what}: witness presence differs from the unreduced engine"
                    );
                }
                let both_complete =
                    reduced.completeness.is_complete() && full.completeness.is_complete();
                if both_complete {
                    assert_identical(&reduced, &full, &what);
                }
                assert_sound(&reduced, &full, &what);
            }
        }
    }
}

#[test]
fn await_reduction_agrees_on_generated_awaits() {
    let config = GeneratorConfig::with_awaits();
    let budget = capped_budget();
    for seed in 0..60u64 {
        let program = random_program(seed, &config);
        // Cycle the three models across the seed range.
        let model = MemoryModelKind::ALL[usize::try_from(seed).unwrap() % 3];
        for jobs in JOBS {
            let what = format!("await seed {seed} model={model} jobs={jobs}");
            let reduced = run_awaits(&program, model, true, jobs, &budget);
            let full = run_awaits(&program, model, false, jobs, &budget);
            // Generated awaits are recognised by construction, so the
            // reduced exploration is exact — the state-cap budget is
            // only a guard against pathological seeds.
            assert!(
                reduced.completeness.is_complete(),
                "{what}: await-aware run truncated ({:?})",
                reduced.completeness
            );
            let both_complete =
                reduced.completeness.is_complete() && full.completeness.is_complete();
            if both_complete {
                assert_identical(&reduced, &full, &what);
            }
            assert_sound(&reduced, &full, &what);
        }
    }
}

#[test]
fn por_agrees_on_generated_programs() {
    let configs = configs();
    let budget = capped_budget();
    for seed in 0..seeds() {
        let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
        let program = random_program(seed, config);
        for jobs in JOBS {
            let what = format!("seed {seed} jobs={jobs}");
            let reduced = run(&program, true, jobs, &budget);
            let full = run(&program, false, jobs, &budget);
            let both_complete = !matches!(reduced.completeness, Completeness::Truncated { .. })
                && !matches!(full.completeness, Completeness::Truncated { .. });
            if both_complete {
                assert_identical(&reduced, &full, &what);
            }
            assert_sound(&reduced, &full, &what);
        }
    }
}
