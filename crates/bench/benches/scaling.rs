//! Scaling benchmarks (E12 of `DESIGN.md`): how the checkers behave as
//! programs grow — the performance evaluation of this reproduction's
//! substrate (the paper itself has no performance section; these sweeps
//! characterise the bounded model checkers it is reproduced on).

use std::hint::black_box;
use transafety_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

use transafety::interleaving::Explorer;
use transafety::lang::{
    extract_traceset, parse_program, ExploreOptions, ExtractOptions, ProgramExplorer,
};
use transafety::litmus::{random_program, GeneratorConfig};
use transafety::traces::Domain;
use transafety::transform::{find_reordering, EliminationOptions};

/// An N-thread store/load chain used for interleaving-growth sweeps.
fn chain_program(threads: usize) -> transafety::lang::Program {
    let mut src = String::new();
    for t in 0..threads {
        if t > 0 {
            src.push_str(" || ");
        }
        src.push_str(&format!("x{t} := 1; r{t} := x{t};"));
    }
    parse_program(&src).unwrap().program
}

fn behaviours_vs_threads(c: &mut Criterion) {
    let opts = ExploreOptions::default();
    let mut group = c.benchmark_group("E12/behaviours_vs_threads");
    for threads in [1usize, 2, 3, 4] {
        let p = chain_program(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &p, |b, p| {
            b.iter(|| {
                ProgramExplorer::new(black_box(p))
                    .behaviours(&opts)
                    .value
                    .len()
            })
        });
    }
    group.finish();
}

fn race_check_vs_statements(c: &mut Criterion) {
    let opts = ExploreOptions::default();
    let mut group = c.benchmark_group("E12/race_check_vs_stmts");
    for stmts in [2usize, 4, 6, 8] {
        let config = GeneratorConfig {
            stmts_per_thread: stmts,
            ..GeneratorConfig::default()
        };
        let programs: Vec<_> = (0..4).map(|s| random_program(s, &config)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(stmts), &programs, |b, ps| {
            b.iter(|| {
                ps.iter()
                    .filter(|p| ProgramExplorer::new(p).is_data_race_free(&opts))
                    .count()
            })
        });
    }
    group.finish();
}

fn extraction_vs_domain(c: &mut Criterion) {
    let p = parse_program("r1 := x; r2 := y; r3 := x; print r3;")
        .unwrap()
        .program;
    let ex = ExtractOptions::default();
    let mut group = c.benchmark_group("E12/extraction_vs_domain");
    for max in [1u32, 2, 4, 8] {
        let d = Domain::zero_to(max);
        group.bench_with_input(BenchmarkId::from_parameter(max + 1), &d, |b, d| {
            b.iter(|| {
                extract_traceset(black_box(&p), d, &ex)
                    .traceset
                    .member_count()
            })
        });
    }
    group.finish();
}

fn interleaving_explorer_vs_direct(c: &mut Criterion) {
    // The experiment behind the two-engine design decision (DESIGN.md
    // §5): the traceset explorer pays for wrong-value reads.
    let p = chain_program(3);
    let d = Domain::zero_to(1);
    let extraction = extract_traceset(&p, &d, &ExtractOptions::default());
    assert!(!extraction.truncated);
    let opts = ExploreOptions::default();
    let mut group = c.benchmark_group("E12/engine_comparison");
    group.bench_function("traceset_route", |b| {
        b.iter(|| {
            Explorer::new(black_box(&extraction.traceset))
                .behaviours()
                .len()
        })
    });
    group.bench_function("direct_route", |b| {
        b.iter(|| {
            ProgramExplorer::new(black_box(&p))
                .behaviours(&opts)
                .value
                .len()
        })
    });
    group.finish();
}

fn reordering_search_vs_length(c: &mut Criterion) {
    // worst-ish case: a trace of independent writes, searched against the
    // traceset of all its permutations' prefixes — forces backtracking.
    use transafety::traces::{Action, Loc, ThreadId, Trace, Traceset, Value};
    let mut group = c.benchmark_group("E12/reordering_search_vs_len");
    for n in [3usize, 4, 5, 6] {
        let t_prime: Trace = std::iter::once(Action::start(ThreadId::new(0)))
            .chain((0..n).map(|i| Action::write(Loc::normal(i as u32), Value::new(1))))
            .collect();
        // original: the reverse order of writes
        let reversed: Trace = std::iter::once(Action::start(ThreadId::new(0)))
            .chain(
                (0..n)
                    .rev()
                    .map(|i| Action::write(Loc::normal(i as u32), Value::new(1))),
            )
            .collect();
        // target traceset contains every prefix-de-permutation we need:
        // all permutations of the write set (prefix closure handles the
        // intermediate lengths)
        let mut ts = Traceset::new();
        let mut perm: Vec<usize> = (0..n).collect();
        loop {
            let tr: Trace = std::iter::once(Action::start(ThreadId::new(0)))
                .chain(
                    perm.iter()
                        .map(|&i| Action::write(Loc::normal(i as u32), Value::new(1))),
                )
                .collect();
            ts.insert(tr).unwrap();
            if !next_permutation(&mut perm) {
                break;
            }
        }
        ts.insert(reversed).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(t_prime, ts),
            |b, (t, ts)| b.iter(|| find_reordering(black_box(t), ts).expect("permutation exists")),
        );
    }
    group.finish();
}

fn elimination_search_vs_extra(c: &mut Criterion) {
    let (o, t) = transafety::litmus::parse_pair("fig1-original", "fig1-transformed");
    let d = Domain::zero_to(1);
    let to = extract_traceset(&o.program, &d, &ExtractOptions::default()).traceset;
    let tt = extract_traceset(&t.program, &d, &ExtractOptions::default()).traceset;
    let mut group = c.benchmark_group("E12/elimination_search_vs_budget");
    for extra in [1usize, 2, 4, 8] {
        let eo = EliminationOptions {
            max_extra: extra,
            ..EliminationOptions::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(extra), &eo, |b, eo| {
            b.iter(|| {
                transafety::transform::is_elimination_of(black_box(&tt), black_box(&to), &d, eo)
                    .is_ok()
            })
        });
    }
    group.finish();
}

fn next_permutation(perm: &mut [usize]) -> bool {
    let n = perm.len();
    if n < 2 {
        return false;
    }
    let mut i = n - 1;
    while i > 0 && perm[i - 1] >= perm[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = n - 1;
    while perm[j] <= perm[i - 1] {
        j -= 1;
    }
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

criterion_group! {
    name = scaling;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = behaviours_vs_threads,
    race_check_vs_statements,
    extraction_vs_domain,
    interleaving_explorer_vs_direct,
    reordering_search_vs_length,
    elimination_search_vs_extra
}
criterion_main!(scaling);
