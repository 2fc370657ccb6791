//! Benchmarks for the §8 TSO experiment (E11 of `DESIGN.md`): the
//! store-buffer machine and the "TSO is explained by the
//! transformations" check.

use std::hint::black_box;
use transafety_bench::{criterion_group, criterion_main, Criterion};

use transafety::traces::Value;
use transafety::{Analysis, MemoryModelKind};
use transafety_bench::corpus_program;

fn tso_vs_sc_exploration(c: &mut Criterion) {
    let mut group = c.benchmark_group("E11/exploration");
    for name in ["sb", "mp", "lb", "corr"] {
        let p = corpus_program(name);
        for model in [MemoryModelKind::Sc, MemoryModelKind::Tso] {
            let analysis = Analysis::new().model(model);
            group.bench_function(format!("{model}/{name}"), |b| {
                b.iter(|| analysis.behaviours(black_box(&p)).output.value.len())
            });
        }
    }
    group.finish();
}

fn tso_explained(c: &mut Criterion) {
    let tso = Analysis::new().model(MemoryModelKind::Tso);
    let sb = corpus_program("sb");
    c.bench_function("E11/explain_sb_depth3", |b| {
        b.iter(|| {
            let e = tso.explain(black_box(&sb), 3).output;
            assert!(e.relaxed && e.explained);
            assert!(e.behaviours.contains(&vec![Value::new(0), Value::new(0)]));
            e.closure_size
        })
    });
    let mp = corpus_program("mp");
    c.bench_function("E11/explain_mp_depth2", |b| {
        b.iter(|| {
            let e = tso.explain(black_box(&mp), 2).output;
            assert!(!e.relaxed && e.explained);
            e.closure_size
        })
    });
}

fn tso_state_space(c: &mut Criterion) {
    let tso = Analysis::new().model(MemoryModelKind::Tso);
    let p = corpus_program("iriw");
    c.bench_function("E11/tso_states_iriw", |b| {
        b.iter(|| tso.census(black_box(&p)).output)
    });
}

criterion_group! {
    name = tso;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = tso_vs_sc_exploration, tso_explained, tso_state_space
}
criterion_main!(tso);
