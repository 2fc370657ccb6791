//! Benchmarks regenerating the paper's figure-level results (E1–E7 of
//! `DESIGN.md`): each bench recomputes one figure's claim and asserts it
//! still holds, so `cargo bench` doubles as an experiment re-run.

use std::hint::black_box;
use transafety_bench::{criterion_group, criterion_main, Criterion};

use transafety::checker::Analysis;
use transafety::interleaving::{Event, Interleaving};
use transafety::lang::{extract_traceset, ExtractOptions};
use transafety::litmus::parse_pair;
use transafety::traces::{Action, Domain, ThreadId, Value};
use transafety::transform::{
    find_unelimination, is_elim_reordering_of, is_elimination_of, reorder_matrix,
    EliminationOptions,
};
use transafety_bench::corpus_program;

fn v(n: u32) -> Value {
    Value::new(n)
}

fn e1_intro(c: &mut Criterion) {
    let original = corpus_program("intro-original");
    let transformed = corpus_program("intro-constant-propagated");
    let opts = Analysis::new();
    c.bench_function("E1/intro_behaviour_check", |b| {
        b.iter(|| {
            let bo = opts.behaviours(black_box(&original)).output.value;
            let bt = opts.behaviours(black_box(&transformed)).output.value;
            assert!(!bo.contains(&vec![v(1)]) && bt.contains(&vec![v(1)]));
            (bo.len(), bt.len())
        })
    });
}

fn e2_fig1(c: &mut Criterion) {
    let (o, t) = parse_pair("fig1-original", "fig1-transformed");
    // domain {0,1} keeps a single bench iteration well under a second
    // while still exercising the full witness search
    let d = Domain::zero_to(1);
    let ex = ExtractOptions::default();
    let eo = EliminationOptions::default();
    c.bench_function("E2/fig1_elimination_check", |b| {
        b.iter(|| {
            let to = extract_traceset(black_box(&o.program), &d, &ex).traceset;
            let tt = extract_traceset(black_box(&t.program), &d, &ex).traceset;
            is_elimination_of(&tt, &to, &d, &eo).expect("Fig. 1");
        })
    });
}

fn e3_fig2(c: &mut Criterion) {
    let (o, t) = parse_pair("fig2-original", "fig2-transformed");
    let d = Domain::zero_to(1);
    let ex = ExtractOptions::default();
    let eo = EliminationOptions::default();
    c.bench_function("E3/fig2_elim_reordering_check", |b| {
        b.iter(|| {
            let to = extract_traceset(black_box(&o.program), &d, &ex).traceset;
            let tt = extract_traceset(black_box(&t.program), &d, &ex).traceset;
            is_elim_reordering_of(&tt, &to, &d, &eo).expect("Fig. 2");
        })
    });
}

fn e4_fig3(c: &mut Criterion) {
    let a = corpus_program("fig3-a");
    let cc = corpus_program("fig3-c");
    let opts = Analysis::new();
    c.bench_function("E4/fig3_two_zero_check", |b| {
        b.iter(|| {
            let ba = opts.behaviours(black_box(&a)).output.value;
            let bc = opts.behaviours(black_box(&cc)).output.value;
            let zz = vec![v(0), v(0)];
            assert!(!ba.contains(&zz) && bc.contains(&zz));
        })
    });
}

fn e6_fig5_unelimination(c: &mut Criterion) {
    let (o, _) = parse_pair("fig5-volatile", "fig5-transformed");
    let d = Domain::zero_to(1);
    let ex = ExtractOptions::default();
    let original = extract_traceset(&o.program, &d, &ex).traceset;
    let vol = o.symbols.loc("v").unwrap();
    let yloc = o.symbols.loc("y").unwrap();
    let i_prime = Interleaving::from_events([
        Event::new(ThreadId::new(0), Action::start(ThreadId::new(0))),
        Event::new(ThreadId::new(1), Action::start(ThreadId::new(1))),
        Event::new(ThreadId::new(0), Action::write(yloc, v(1))),
        Event::new(ThreadId::new(1), Action::read(vol, v(0))),
        Event::new(ThreadId::new(1), Action::external(v(0))),
    ]);
    let eo = EliminationOptions::default();
    c.bench_function("E6/fig5_unelimination", |b| {
        b.iter(|| {
            let w = find_unelimination(black_box(&i_prime), &original, &d, &eo).expect("Lemma 1");
            assert!(w.check(&i_prime));
            w.wild.len()
        })
    });
}

fn e7_matrix(c: &mut Criterion) {
    c.bench_function("E7/reorder_matrix", |b| {
        b.iter(|| {
            let m = reorder_matrix();
            black_box(m)
        })
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = e1_intro, e2_fig1, e3_fig2, e4_fig3, e6_fig5_unelimination, e7_matrix
}
criterion_main!(figures);
