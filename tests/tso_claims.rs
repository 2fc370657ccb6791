//! Integration tests for the §8 TSO experiment (E11 of `DESIGN.md`).

use transafety::interleaving::Behaviours;
use transafety::lang::{Bounded, Program};
use transafety::litmus::{by_name, corpus, random_program, GeneratorConfig};
use transafety::traces::MemoryModelKind::{self, Pso, Sc, Tso};
use transafety::traces::Value;
use transafety::tso::Explanation;
use transafety::Analysis;

fn v(n: u32) -> Value {
    Value::new(n)
}

fn behaviours(model: MemoryModelKind, p: &Program) -> Bounded<Behaviours> {
    Analysis::new().model(model).behaviours(p).output
}

/// The §8 check at depth 3 under `model`, with default bounds.
fn explain(model: MemoryModelKind, p: &Program) -> Explanation {
    Analysis::new().model(model).explain(p, 3).output
}

#[test]
fn tso_behaviours_include_sc_behaviours_on_corpus() {
    for l in corpus() {
        let p = l.parse().program;
        if p.threads().iter().flatten().count() > 14 {
            continue;
        }
        let sc = behaviours(Sc, &p);
        let tso = behaviours(Tso, &p);
        if !(sc.complete && tso.complete) {
            continue;
        }
        assert!(
            sc.value.is_subset(&tso.value),
            "{}: SC behaviour missing under TSO",
            l.name
        );
    }
}

#[test]
fn tso_behaviours_include_sc_behaviours_on_random_programs() {
    let config = GeneratorConfig::default();
    for seed in 0..15 {
        let p = random_program(seed, &config);
        let sc = behaviours(Sc, &p);
        let tso = behaviours(Tso, &p);
        if !(sc.complete && tso.complete) {
            continue;
        }
        assert!(sc.value.is_subset(&tso.value), "seed {seed}:\n{p}");
    }
}

#[test]
fn sb_relaxed_outcome_appears_only_under_tso() {
    let p = by_name("sb").unwrap().parse().program;
    let zz = vec![v(0), v(0)];
    assert!(!behaviours(Sc, &p).value.contains(&zz));
    assert!(behaviours(Tso, &p).value.contains(&zz));
}

#[test]
fn every_corpus_tso_behaviour_is_explained() {
    let mut relaxed = 0;
    for l in corpus() {
        let p = l.parse().program;
        if p.threads().iter().flatten().count() > 14 {
            continue;
        }
        let e = explain(Tso, &p);
        if !e.complete {
            continue;
        }
        if e.relaxed {
            relaxed += 1;
        }
        assert!(e.explained, "{}: unexplained TSO behaviour", l.name);
    }
    assert!(relaxed >= 1, "SB must be relaxed");
}

#[test]
fn drf_programs_are_sc_on_tso() {
    // The DRF guarantee carried to hardware: for the corpus programs that
    // are data race free, TSO behaviours coincide with SC behaviours
    // (fences via volatiles/locks cover every communication).
    let mut checked = 0;
    for l in corpus() {
        let p = l.parse().program;
        if p.threads().iter().flatten().count() > 14 {
            continue;
        }
        if Analysis::new().races(&p).output.is_some() {
            continue;
        }
        let sc = behaviours(Sc, &p);
        let tso = behaviours(Tso, &p);
        if !(sc.complete && tso.complete) {
            continue;
        }
        assert_eq!(
            sc.value, tso.value,
            "{}: DRF program with relaxed TSO behaviour",
            l.name
        );
        checked += 1;
    }
    assert!(checked >= 5, "checked only {checked} DRF corpus programs");
}

#[test]
fn random_drf_programs_are_sc_on_tso() {
    let config = GeneratorConfig::drf();
    for seed in 0..10 {
        let p = random_program(seed, &config);
        let sc = behaviours(Sc, &p);
        let tso = behaviours(Tso, &p);
        assert!(sc.complete && tso.complete);
        assert_eq!(sc.value, tso.value, "seed {seed}:\n{p}");
    }
}

#[test]
fn random_programs_tso_explained_by_fragment() {
    // §8 differential check beyond the corpus: for random loop-free
    // programs, every TSO behaviour is explained by the W→R-reordering +
    // forwarding fragment.
    let config = GeneratorConfig {
        stmts_per_thread: 3,
        if_prob: 0.0, // keep the closure small and exact
        ..GeneratorConfig::default()
    };
    let mut relaxed = 0;
    for seed in 0..12 {
        let p = random_program(seed, &config);
        let e = explain(Tso, &p);
        if !e.complete {
            continue;
        }
        if e.relaxed {
            relaxed += 1;
        }
        assert!(e.explained, "seed {seed}: unexplained TSO behaviour\n{p}");
    }
    // not all seeds produce write-then-read shapes; just require progress
    let _ = relaxed;
}

#[test]
fn pso_includes_tso_on_corpus() {
    for l in corpus() {
        let p = l.parse().program;
        if p.threads().iter().flatten().count() > 10 {
            continue;
        }
        let tso = behaviours(Tso, &p);
        let pso = behaviours(Pso, &p);
        if !(tso.complete && pso.complete) {
            continue;
        }
        assert!(
            tso.value.is_subset(&pso.value),
            "{}: TSO behaviour missing under PSO",
            l.name
        );
    }
}

#[test]
fn random_programs_pso_explained_by_extended_fragment() {
    let config = GeneratorConfig {
        stmts_per_thread: 3,
        if_prob: 0.0,
        lock_block_prob: 0.0, // pure store/load programs stress W→W
        ..GeneratorConfig::default()
    };
    for seed in 0..10 {
        let p = random_program(seed, &config);
        let e = explain(Pso, &p);
        if !e.complete {
            continue;
        }
        assert!(e.explained, "seed {seed}: unexplained PSO behaviour\n{p}");
    }
}
