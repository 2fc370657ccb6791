//! E16: the happens-before partial-order reduction.
//!
//! Runs the E14 workload family (the heaviest litmus entries plus
//! every shipped `programs/*.tsl`) through the behaviour and race
//! engines with POR on and off. Before timing anything it prints a
//! states-explored table — the reduction's primary claim is about
//! state count, not microseconds — and asserts that the verdict and
//! the behaviour set are bit-identical between the two engines, so a
//! regression in POR soundness fails the bench run itself.

use std::hint::black_box;
use transafety_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

use transafety::interleaving::BudgetGuard;
use transafety::lang::{parse_program, ExploreOptions, Program, ProgramExplorer};
use transafety::{Budget, CancelToken};

/// The E14 workload family: heaviest litmus entries + `programs/*.tsl`.
fn corpus() -> Vec<(String, Program)> {
    let mut corpus: Vec<(String, Program)> = Vec::new();
    for name in ["iriw", "wrc", "dekker-core", "mp-spin"] {
        let l = transafety::litmus::by_name(name).expect("corpus name");
        corpus.push((name.to_string(), l.parse().program));
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("programs/ directory exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tsl"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("readable program file");
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        corpus.push((
            name,
            parse_program(&src).expect("valid .tsl program").program,
        ));
    }
    corpus
}

fn opts(por: bool) -> ExploreOptions {
    ExploreOptions {
        por,
        ..ExploreOptions::default()
    }
}

/// Counts the states the behaviour search actually visits.
fn governed_states(p: &Program, por: bool) -> (usize, bool) {
    let guard = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
    let b = ProgramExplorer::new(p).behaviours_governed(&opts(por), &guard);
    (guard.states(), b.complete)
}

/// The reduction's claim, checked and printed before any timing:
/// identical observables, fewer states.
fn states_table(corpus: &[(String, Program)]) {
    println!(
        "\nE16/por_states_explored (behaviour search, sequential)\n\
         {:<22} {:>10} {:>10} {:>9}",
        "program", "full", "reduced", "ratio"
    );
    for (name, p) in corpus {
        let ex = ProgramExplorer::new(p);
        let on = ex.behaviours(&opts(true));
        let off = ex.behaviours(&opts(false));
        assert_eq!(on, off, "{name}: POR changed the behaviour set");
        assert_eq!(
            ex.race_witness(&opts(true)).is_some(),
            ex.race_witness(&opts(false)).is_some(),
            "{name}: POR changed the race verdict"
        );
        let (full, _) = governed_states(p, false);
        let (reduced, _) = governed_states(p, true);
        println!(
            "{:<22} {:>10} {:>10} {:>8.2}x",
            name,
            full,
            reduced,
            full as f64 / reduced.max(1) as f64
        );
    }
    println!();
}

fn behaviours_por(c: &mut Criterion) {
    let corpus = corpus();
    states_table(&corpus);
    let mut group = c.benchmark_group("E16/por/behaviours");
    for (name, p) in &corpus {
        for (tag, por) in [("full", false), ("reduced", true)] {
            let o = opts(por);
            group.bench_with_input(BenchmarkId::new(tag, name), p, |b, p| {
                b.iter(|| {
                    ProgramExplorer::new(black_box(p))
                        .behaviours(&o)
                        .value
                        .len()
                })
            });
        }
    }
    group.finish();
}

fn race_search_por(c: &mut Criterion) {
    let corpus = corpus();
    let mut group = c.benchmark_group("E16/por/race_search");
    for (name, p) in &corpus {
        for (tag, por) in [("full", false), ("reduced", true)] {
            let o = opts(por);
            group.bench_with_input(BenchmarkId::new(tag, name), p, |b, p| {
                b.iter(|| {
                    ProgramExplorer::new(black_box(p))
                        .race_witness(&o)
                        .is_some()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, behaviours_por, race_search_por);
criterion_main!(benches);
