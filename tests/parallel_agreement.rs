//! Determinism across worker counts: for every program in the built-in
//! litmus corpus and every `.tsl` program shipped in `programs/`, an
//! [`Analysis`] at `jobs >= 2` must agree with `jobs = 1` on
//! behaviours, race verdicts *and* race witnesses — bit-identically.
//!
//! The verdict phases run the sequential engine at every job count (the
//! deleted parallel search lost to it at every size measured), so a parallel
//! analysis *is* a jobs-1 analysis, down to the stats counters. `jobs`
//! still fans out the guarantee checker's traceset work.

mod support;

use support::{configs, default_por, seeds};
use transafety::checker::Analysis;
use transafety::lang::{parse_program, Program};
use transafety::litmus::{corpus, random_program};
use transafety::traces::MemoryModelKind;
use transafety::Budget;

fn corpus_programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = corpus()
        .iter()
        .map(|l| (l.name.to_string(), l.parse().program))
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/programs");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("programs/ directory exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tsl"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "programs/*.tsl corpus is missing");
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("readable program file");
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        out.push((
            name,
            parse_program(&src).expect("valid .tsl program").program,
        ));
    }
    out
}

#[test]
fn guarantee_verdicts_agree_across_worker_counts() {
    use transafety::checker::drf_guarantee;
    use transafety::syntactic::all_rewrites;

    // The theorem-level check composes behaviours + race searches; run
    // it over every safe rewrite of a few corpus programs and demand the
    // same verdict at every worker count.
    for name in [
        "fig1-original",
        "redundant-load-pair",
        "store-forward",
        "sb",
        "mp-volatile",
    ] {
        let program = transafety::litmus::by_name(name)
            .expect("corpus name")
            .parse()
            .program;
        for rw in all_rewrites(&program) {
            let reference = drf_guarantee(&rw.result, &program, &Analysis::new());
            for jobs in [2, 4] {
                let parallel = drf_guarantee(&rw.result, &program, &Analysis::new().jobs(jobs));
                assert_eq!(
                    parallel, reference,
                    "{name}/{rw}: guarantee verdict differs at jobs={jobs}"
                );
            }
        }
    }
}

#[test]
fn analysis_reports_agree_across_worker_counts() {
    for (name, program) in corpus_programs() {
        let reference = Analysis::new().run(&program);
        let parallel = Analysis::new().jobs(4).run(&program);
        assert_eq!(
            reference.behaviours, parallel.behaviours,
            "{name}: behaviours"
        );
        assert_eq!(reference.race, parallel.race, "{name}: race witness");
        assert_eq!(
            Analysis::new().census(&program).output,
            Analysis::new().jobs(4).census(&program).output,
            "{name}: state census"
        );
        assert_eq!(
            reference.completeness, parallel.completeness,
            "{name}: completeness"
        );
        assert_eq!(reference.verdict, parallel.verdict, "{name}: verdict");
    }
}

#[test]
fn completeness_and_verdict_agree_under_a_state_budget() {
    use transafety::checker::Verdict;

    // A state cap trips deterministically at the same explored-state
    // count whatever the worker count, so the *shape* of the outcome
    // (complete vs truncated, and the three-valued verdict modulo the
    // sequential/parallel tie on discovery order) must agree. The
    // soundness half is exact: a truncated run never upgrades to a
    // proof.
    for (name, program) in corpus_programs() {
        let seq = Analysis::new().max_states(64).run(&program);
        let par = Analysis::new().max_states(64).jobs(4).run(&program);
        for (engine, report) in [("sequential", &seq), ("parallel", &par)] {
            assert!(
                report.completeness.is_complete() || report.verdict != Verdict::DrfProven,
                "{name}/{engine}: truncated run claimed a DRF proof"
            );
            if report.verdict == Verdict::DrfProven {
                assert!(report.race.is_none(), "{name}/{engine}: proven yet racy");
            }
        }
        // Racy-witness agreement: if both engines ran to completion the
        // full report (including verdict) must be bit-identical.
        if seq.completeness.is_complete() && par.completeness.is_complete() {
            assert_eq!(seq.verdict, par.verdict, "{name}: verdict under budget");
            assert_eq!(seq.race, par.race, "{name}: race under budget");
        }
    }
}

/// The litmus corpus plus the first `count` generated programs of the
/// shared generator mixes.
fn litmus_and_generated(count: u64) -> Vec<(String, Program)> {
    let configs = configs();
    let generated = (0..count).map(|seed| {
        let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
        (format!("seed {seed}"), random_program(seed, config))
    });
    corpus()
        .iter()
        .map(|l| (format!("litmus {}", l.name), l.parse().program))
        .chain(generated)
        .collect()
}

/// The stats JSON without its timing fields.
fn untimed_json(json: &str) -> String {
    json.split(',')
        .filter(|field| !field.split(':').next().unwrap_or("").ends_with("_nanos\""))
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn parallel_runs_are_jobs_1_runs() {
    // Jobs 2 and 4 run the very engine jobs 1 runs: same report, same
    // counters, and the pool never starts. A state cap only: a
    // wall-clock trip would make the explored prefix timing-dependent.
    let budget = Budget::unlimited().max_states(200_000);
    for model in [
        MemoryModelKind::Sc,
        MemoryModelKind::Tso,
        MemoryModelKind::Pso,
    ] {
        for (name, program) in litmus_and_generated(seeds()) {
            let run = |jobs: usize| {
                let report = Analysis::new()
                    .model(model)
                    .jobs(jobs)
                    .por(default_por())
                    .budget(budget)
                    .metrics(true)
                    .run(&program);
                let stats = untimed_json(&report.stats.to_json());
                (report, stats)
            };
            let (reference, reference_stats) = run(1);
            for jobs in [2, 4] {
                let (report, stats) = run(jobs);
                let at = format!("{name} model={model} jobs={jobs}");
                assert!(stats.contains("\"pool_tasks\":0,"), "{at}: {stats}");
                assert_eq!(stats, reference_stats, "{at}: stats");
                assert_eq!(report.behaviours, reference.behaviours, "{at}");
                assert_eq!(report.race, reference.race, "{at}");
                assert_eq!(report.race_schedule, reference.race_schedule, "{at}");
                assert_eq!(report.completeness, reference.completeness, "{at}");
                assert_eq!(report.verdict, reference.verdict, "{at}");
                assert_eq!(report.states_explored, reference.states_explored, "{at}");
            }
        }
    }
}
