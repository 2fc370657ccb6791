//! E15: overhead of the budget governor.
//!
//! The budgeted engine threads a `BudgetGuard` through every explorer
//! recursion. The legacy entry points pass an *inert* guard (no
//! deadline, no state cap — every `should_stop` is a single boolean
//! load), while budgeted runs pay for an atomic state counter and a
//! strided clock sample. This bench measures both against the E14
//! worker-scaling workloads; the acceptance target is < 3% overhead
//! for the live-but-generous budget on the heaviest programs.

use std::hint::black_box;
use std::time::Duration;
use transafety_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

use transafety::interleaving::BudgetGuard;
use transafety::lang::{ExploreOptions, ProgramExplorer};
use transafety::{Budget, CancelToken};

/// The E14 workload: the heaviest litmus entries by sequential runtime.
fn corpus() -> Vec<(String, transafety::lang::Program)> {
    ["iriw", "wrc", "dekker-core", "mp-spin"]
        .iter()
        .map(|name| {
            let l = transafety::litmus::by_name(name).expect("corpus name");
            (name.to_string(), l.parse().program)
        })
        .collect()
}

/// A budget generous enough that nothing ever trips: the run is
/// governed (live deadline + state cap) but completes exactly as the
/// ungoverned one, so the difference is pure governor overhead.
fn generous_budget() -> Budget {
    Budget::default()
        .timeout(Duration::from_secs(3600))
        .max_states(usize::MAX / 2)
}

fn behaviours_overhead(c: &mut Criterion) {
    let opts = ExploreOptions::default();
    let budget = generous_budget();
    let mut group = c.benchmark_group("E15/budget_overhead/behaviours");
    for (name, p) in &corpus() {
        group.bench_with_input(BenchmarkId::new("ungoverned", name), p, |b, p| {
            b.iter(|| {
                ProgramExplorer::new(black_box(p))
                    .behaviours(&opts)
                    .value
                    .len()
            })
        });
        group.bench_with_input(BenchmarkId::new("budgeted", name), p, |b, p| {
            b.iter(|| {
                let guard = BudgetGuard::new(&budget, CancelToken::new());
                ProgramExplorer::new(black_box(p))
                    .behaviours_governed(&opts, &guard)
                    .value
                    .len()
            })
        });
    }
    group.finish();
}

fn race_search_overhead(c: &mut Criterion) {
    let opts = ExploreOptions::default();
    let budget = generous_budget();
    let mut group = c.benchmark_group("E15/budget_overhead/race_search");
    for (name, p) in &corpus() {
        group.bench_with_input(BenchmarkId::new("ungoverned", name), p, |b, p| {
            b.iter(|| {
                ProgramExplorer::new(black_box(p))
                    .race_witness(&opts)
                    .is_some()
            })
        });
        group.bench_with_input(BenchmarkId::new("budgeted", name), p, |b, p| {
            b.iter(|| {
                let guard = BudgetGuard::new(&budget, CancelToken::new());
                ProgramExplorer::new(black_box(p))
                    .race_witness_governed(&opts, &guard)
                    .is_some()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = budget;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = behaviours_overhead, race_search_overhead
}
criterion_main!(budget);
