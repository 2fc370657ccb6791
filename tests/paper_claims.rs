//! Integration tests: the figure-level claims of the paper (experiments
//! E1–E7 of `DESIGN.md`), asserted end-to-end across the crates.

use transafety::checker::Analysis;
use transafety::interleaving::Behaviours;
use transafety::lang::{extract_traceset, ExtractOptions};
use transafety::litmus::{by_name, parse_pair};
use transafety::traces::{Domain, Value};
use transafety::transform::{
    is_elim_reordering_of, is_elimination_of, EliminationOptions, MatrixEntry,
};

fn v(n: u32) -> Value {
    Value::new(n)
}

fn behaviours_of(name: &str) -> Behaviours {
    let p = by_name(name).unwrap().parse().program;
    let b = Analysis::new().behaviours(&p).output;
    assert!(b.complete, "{name} truncated");
    b.value
}

#[test]
fn e1_intro_example() {
    assert!(!behaviours_of("intro-original").contains(&vec![v(1)]));
    assert!(behaviours_of("intro-constant-propagated").contains(&vec![v(1)]));
    let opts = Analysis::new();
    assert!(opts
        .races(&by_name("intro-original").unwrap().parse().program)
        .output
        .is_some());
    assert!(opts
        .races(&by_name("intro-volatile").unwrap().parse().program)
        .output
        .is_none());
}

#[test]
fn e2_fig1_elimination() {
    let one_zero = vec![v(1), v(0)];
    assert!(!behaviours_of("fig1-original").contains(&one_zero));
    assert!(behaviours_of("fig1-transformed").contains(&one_zero));
    let (o, t) = parse_pair("fig1-original", "fig1-transformed");
    let d = Domain::zero_to(2);
    let ex = ExtractOptions::default();
    let to = extract_traceset(&o.program, &d, &ex);
    let tt = extract_traceset(&t.program, &d, &ex);
    assert!(!to.truncated && !tt.truncated);
    is_elimination_of(
        &tt.traceset,
        &to.traceset,
        &d,
        &EliminationOptions::default(),
    )
    .expect("Fig. 1 is a semantic elimination");
}

#[test]
fn e3_fig2_reordering() {
    assert!(!behaviours_of("fig2-original").contains(&vec![v(1)]));
    assert!(behaviours_of("fig2-transformed").contains(&vec![v(1)]));
    let (o, t) = parse_pair("fig2-original", "fig2-transformed");
    let d = Domain::zero_to(1);
    let ex = ExtractOptions::default();
    let to = extract_traceset(&o.program, &d, &ex);
    let tt = extract_traceset(&t.program, &d, &ex);
    is_elim_reordering_of(
        &tt.traceset,
        &to.traceset,
        &d,
        &EliminationOptions::default(),
    )
    .expect("Fig. 2 is a reordering of an elimination");
    // …and NOT a plain elimination (the write moved before the read)
    assert!(is_elimination_of(
        &tt.traceset,
        &to.traceset,
        &d,
        &EliminationOptions::default()
    )
    .is_err());
}

#[test]
fn e4_fig3_read_introduction_breaks_drf_guarantee() {
    let two_zeros = vec![v(0), v(0)];
    let opts = Analysis::new();
    // (a): DRF, cannot print two zeros.
    assert!(opts
        .races(&by_name("fig3-a").unwrap().parse().program)
        .output
        .is_none());
    assert!(!behaviours_of("fig3-a").contains(&two_zeros));
    // (c): prints two zeros even on SC hardware.
    assert!(behaviours_of("fig3-c").contains(&two_zeros));
    // The elimination step (b) → (c) is valid; the introduction (a) → (b)
    // is the transformation outside the safe classes.
    let d = Domain::zero_to(1);
    let ex = ExtractOptions::default();
    let opts_e = EliminationOptions::default();
    let (b, c) = parse_pair("fig3-b", "fig3-c");
    let tb = extract_traceset(&b.program, &d, &ex);
    let tc = extract_traceset(&c.program, &d, &ex);
    is_elimination_of(&tc.traceset, &tb.traceset, &d, &opts_e).expect("(b)→(c) valid");
    let (a, b2) = parse_pair("fig3-a", "fig3-b");
    let ta = extract_traceset(&a.program, &d, &ex);
    let tb2 = extract_traceset(&b2.program, &d, &ex);
    assert!(is_elimination_of(&tb2.traceset, &ta.traceset, &d, &opts_e).is_err());
}

#[test]
fn e4_fig3_behaviour_comparison_via_introduced_read() {
    // Reconstruct (b) from (a) with the unsafe rewrite and confirm the
    // composition (introduce + eliminate) yields (c)'s new behaviour.
    use transafety::lang::Reg;
    use transafety::syntactic::introduce_irrelevant_read;
    let a = by_name("fig3-a").unwrap().parse();
    let x = a.symbols.loc("x").unwrap();
    let y = a.symbols.loc("y").unwrap();
    let with_read_t0 = introduce_irrelevant_read(&a.program, 0, 0, y, Reg::new(501)).unwrap();
    let b = introduce_irrelevant_read(&with_read_t0, 1, 0, x, Reg::new(502)).unwrap();
    // (b) has the same behaviours as (a) on SC…
    let opts = Analysis::new();
    let ba = opts.behaviours(&a.program).output.value;
    let bb = opts.behaviours(&b).output.value;
    assert_eq!(ba, bb, "introduced irrelevant reads are SC-invisible");
    // …but (b) is racy where (a) was DRF: the introduction broke DRF.
    assert!(opts.races(&a.program).output.is_none());
    assert!(opts.races(&b).output.is_some());
}

#[test]
fn e7_reorder_matrix_matches_paper() {
    use MatrixEntry::{Always as A, DifferentLocation as D, Never as N};
    let expected = [
        [D, D, A, N, A],
        [D, A, A, N, A],
        [N, N, N, N, N],
        [A, A, N, N, N],
        [A, A, N, N, N],
    ];
    assert_eq!(transafety::transform::reorder_matrix(), expected);
}

#[test]
fn fig5_transformed_is_elimination_of_original() {
    let (o, t) = parse_pair("fig5-volatile", "fig5-transformed");
    let d = Domain::zero_to(1);
    let ex = ExtractOptions::default();
    let to = extract_traceset(&o.program, &d, &ex);
    let tt = extract_traceset(&t.program, &d, &ex);
    is_elimination_of(
        &tt.traceset,
        &to.traceset,
        &d,
        &EliminationOptions::default(),
    )
    .expect("dropping the last release and the irrelevant read is an elimination");
}

#[test]
fn section4_worked_example_elimination() {
    // §4: the traceset of `x:=1; print 1; lock m; x:=1; unlock m` is an
    // elimination of the worked example's traceset.
    let o = by_name("section4-worked").unwrap().parse();
    let t = transafety::lang::parse_program_with_symbols(
        "x := 1; print 1; lock m; x := 1; unlock m;",
        o.symbols.clone(),
    )
    .unwrap();
    let d = Domain::zero_to(2);
    let ex = ExtractOptions::default();
    let to = extract_traceset(&o.program, &d, &ex);
    let tt = extract_traceset(&t.program, &d, &ex);
    assert!(!to.truncated && !tt.truncated);
    is_elimination_of(
        &tt.traceset,
        &to.traceset,
        &d,
        &EliminationOptions::default(),
    )
    .expect("the §4 worked example");
}

#[test]
fn corr_coherence_holds_under_sc() {
    // CoRR: after a single write of 1, reading 1 then 0 is impossible.
    let b = behaviours_of("corr");
    assert!(!b.contains(&vec![v(1), v(0)]));
    assert!(b.contains(&vec![v(0), v(1)]));
    assert!(b.contains(&vec![v(1), v(1)]));
}

#[test]
fn lb_forbidden_outcome() {
    // Load buffering: r1 = r2 = 1 is impossible under SC.
    assert!(!behaviours_of("lb").contains(&vec![v(1), v(1)]));
}
