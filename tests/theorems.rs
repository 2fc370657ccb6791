//! Integration tests: the theorem-level experiments (E8–E10 of
//! `DESIGN.md`) over the litmus corpus and random programs.

use transafety::checker::{
    check_rewrite, drf_guarantee, no_thin_air, Analysis, Correspondence, DrfVerdict, OotaVerdict,
};
use transafety::lang::Program;
use transafety::litmus::{corpus, random_program, GeneratorConfig};
use transafety::syntactic::{all_rewrites, transform_closure, RuleSet};
use transafety::traces::{Domain, Value};

fn small_enough(p: &Program) -> bool {
    p.threads().iter().flatten().count() <= 12
}

/// E8/E9 on the corpus: every single-step safe rewrite of every corpus
/// program satisfies the DRF guarantee. (The original's race status and
/// behaviours are computed once per program, not once per rewrite.)
#[test]
fn corpus_rewrites_satisfy_drf_guarantee() {
    let opts = Analysis::new();
    let mut checked = 0;
    for l in corpus() {
        let p = l.parse().program;
        if !small_enough(&p) {
            continue;
        }
        let original_racy = opts.races(&p).output.is_some();
        let original_behaviours = opts.behaviours(&p).output;
        for rw in all_rewrites(&p) {
            checked += 1;
            if original_racy {
                continue; // the guarantee is vacuous (Fig. 1/2 cases)
            }
            let transformed = opts.behaviours(&rw.result).output;
            if !(original_behaviours.complete && transformed.complete) {
                continue; // loop-program fuel bound (mp-spin): no verdict
            }
            assert!(
                transformed.value.is_subset(&original_behaviours.value),
                "{}: {rw} added behaviour",
                l.name
            );
            assert!(
                opts.races(&rw.result).output.is_none(),
                "{}: {rw} introduced a race",
                l.name
            );
        }
    }
    assert!(
        checked > 20,
        "expected many rewrites across the corpus, got {checked}"
    );
}

/// E8/E9 semantic side on the corpus: each rewrite is in its promised
/// semantic class (Lemmas 4/5).
#[test]
fn corpus_rewrites_satisfy_semantic_correspondence() {
    let opts = Analysis::with_domain(Domain::zero_to(1));
    let mut checked = 0;
    for l in corpus() {
        let p = l.parse().program;
        // traceset extraction fans out over the domain: keep it small
        if p.threads().iter().flatten().count() > 9 {
            continue;
        }
        for rw in all_rewrites(&p) {
            match check_rewrite(&p, &rw, &opts) {
                Correspondence::Verified { .. } => checked += 1,
                Correspondence::Inconclusive => {}
                Correspondence::Failed { trace } => {
                    panic!("{}: {rw} failed Lemma 4/5 on trace {trace}", l.name)
                }
            }
        }
    }
    assert!(checked > 10, "expected verified rewrites, got {checked}");
}

/// E8/E9 on random programs: DRF guarantee for every one-step rewrite of
/// lock-disciplined (hence DRF) generated programs, where the strong
/// `Holds` verdict must come out.
#[test]
fn random_drf_programs_rewrites_hold() {
    let opts = Analysis::new();
    let config = GeneratorConfig::drf();
    let mut holds = 0;
    for seed in 0..20 {
        let p = random_program(seed, &config);
        for rw in all_rewrites(&p) {
            match drf_guarantee(&rw.result, &p, &opts) {
                DrfVerdict::Holds => holds += 1,
                DrfVerdict::OriginalRacy(w) => {
                    panic!("lock-disciplined program racy? seed {seed}: {}", w.witness)
                }
                DrfVerdict::Inconclusive => {}
                bad => panic!("seed {seed}: {rw} gave {bad}\nprogram:\n{p}"),
            }
        }
    }
    assert!(
        holds > 10,
        "expected rewrites on generated programs, got {holds}"
    );
}

/// E8/E9 on random *racy* programs: rewrites may add behaviours (the
/// guarantee is vacuous), but the checker must never crash and the
/// verdict must be either vacuous or hold.
#[test]
fn random_racy_programs_are_handled() {
    let opts = Analysis::new();
    let config = GeneratorConfig::default();
    let mut vacuous = 0;
    for seed in 0..20 {
        let p = random_program(seed, &config);
        for rw in all_rewrites(&p).into_iter().take(4) {
            match drf_guarantee(&rw.result, &p, &opts) {
                DrfVerdict::OriginalRacy(_) => vacuous += 1,
                DrfVerdict::Holds | DrfVerdict::Inconclusive => {}
                bad => panic!("seed {seed}: safe rewrite {rw} on a DRF program gave {bad}\n{p}"),
            }
        }
    }
    assert!(vacuous > 0, "expected some racy programs");
}

/// Composition: multi-step transformation chains keep the guarantee
/// (the paper's "arbitrary composition of the transformations is also
/// safe", §8).
#[test]
fn composed_transformations_keep_guarantee() {
    let opts = Analysis::new();
    let p = transafety::litmus::by_name("fig3-a")
        .unwrap()
        .parse()
        .program;
    for q in transform_closure(&p, RuleSet::All, 3) {
        let verdict = drf_guarantee(&q, &p, &opts);
        assert!(
            matches!(verdict, DrfVerdict::Holds),
            "closure member violated the guarantee: {verdict}\n{q}"
        );
    }
}

/// E10: Theorem 5 on the corpus — racy or not, no program can conjure an
/// unmentioned constant through any bounded composition of safe rules.
#[test]
fn corpus_oota_guarantee() {
    let magic = Value::new(42);
    let opts = Analysis::with_domain(Domain::from_values([Value::new(2), magic]));
    let mut safe = 0;
    for l in corpus() {
        let p = l.parse().program;
        if !small_enough(&p) || p.mentions_constant(magic) {
            continue;
        }
        match no_thin_air(&p, magic, 2, &opts) {
            OotaVerdict::Safe { .. } => safe += 1,
            OotaVerdict::Inconclusive | OotaVerdict::MentionsConstant => {}
            OotaVerdict::OriginFound { program } => {
                panic!("{}: thin-air origin in\n{program}", l.name)
            }
        }
    }
    assert!(safe >= 10, "expected OOTA-safe corpus programs, got {safe}");
}

/// The SC-only baseline (§1/§7): count safe rewrites it must reject.
#[test]
fn sc_only_baseline_rejects_some_safe_rewrites() {
    let opts = Analysis::new();
    let mut rejected = 0;
    let mut total = 0;
    for name in ["fig1-original", "fig2-original", "sb", "mp"] {
        let p = transafety::litmus::by_name(name).unwrap().parse().program;
        for rw in all_rewrites(&p) {
            total += 1;
            if !transafety::checker::sc_only_accepts(&rw.result, &p, &opts) {
                rejected += 1;
            }
        }
    }
    assert!(total > 0);
    assert!(
        rejected > 0,
        "the paper's motivation: an SC-preserving compiler must reject some \
         of these transformations ({rejected}/{total})"
    );
}
