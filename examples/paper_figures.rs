//! Regenerates every figure-level claim of the paper (experiments E1–E7
//! of `DESIGN.md`), printing a claim-by-claim report.
//!
//! Run with `cargo run --example paper_figures`.

use transafety::checker::Analysis;
use transafety::interleaving::{Event, Interleaving};
use transafety::lang::{extract_traceset, ExtractOptions};
use transafety::litmus::{by_name, parse_pair};
use transafety::traces::{Action, Domain, Loc, ThreadId, Trace, Value};
use transafety::transform::{
    de_permute_prefix, find_unelimination, is_elim_reordering_of, is_elimination_of,
    render_reorder_matrix, EliminationOptions, ReorderingFn,
};

fn v(n: u32) -> Value {
    Value::new(n)
}

fn check(name: &str, claim: &str, holds: bool) {
    println!("  [{}] {claim}", if holds { "ok" } else { "FAILED" });
    assert!(holds, "{name}: {claim}");
}

fn behaviours_of(name: &str, opts: &Analysis) -> transafety::interleaving::Behaviours {
    let p = by_name(name).unwrap().parse().program;
    let b = opts.behaviours(&p).output;
    assert!(b.complete, "{name} exploration truncated");
    b.value
}

fn main() {
    let opts = Analysis::new();

    println!("E1 — §1 introduction example");
    let b = behaviours_of("intro-original", &opts);
    check(
        "E1",
        "the original cannot print 1 under SC",
        !b.contains(&vec![v(1)]),
    );
    let bt = behaviours_of("intro-constant-propagated", &opts);
    check(
        "E1",
        "the constant-propagated program can print 1",
        bt.contains(&vec![v(1)]),
    );
    let racy = opts
        .races(&by_name("intro-original").unwrap().parse().program)
        .output
        .is_some();
    check(
        "E1",
        "the original has data races (guarantee vacuous)",
        racy,
    );
    let drf = opts
        .races(&by_name("intro-volatile").unwrap().parse().program)
        .output
        .is_none();
    check("E1", "volatile flags make it data race free", drf);

    println!("E2 — Fig. 1 elimination example");
    let bo = behaviours_of("fig1-original", &opts);
    let bt = behaviours_of("fig1-transformed", &opts);
    let one_zero = vec![v(1), v(0)];
    check(
        "E2",
        "the original cannot output 1 then 0",
        !bo.contains(&one_zero),
    );
    check(
        "E2",
        "the transformed program can output 1 then 0",
        bt.contains(&one_zero),
    );
    if let Some(schedule) = transafety::checker::execution_with_behaviour(
        &by_name("fig1-transformed").unwrap().parse().program,
        &one_zero,
        &opts,
    ) {
        println!("    witness schedule: {schedule}");
    }
    // the transformed traceset is a semantic elimination of the original
    let d = Domain::zero_to(2);
    let ex = ExtractOptions::default();
    let (fig1o, fig1t) = parse_pair("fig1-original", "fig1-transformed");
    let to = extract_traceset(&fig1o.program, &d, &ex);
    let tt = extract_traceset(&fig1t.program, &d, &ex);
    assert!(!to.truncated && !tt.truncated);
    check(
        "E2",
        "[transformed] is a semantic elimination of [original]",
        is_elimination_of(
            &tt.traceset,
            &to.traceset,
            &d,
            &EliminationOptions::default(),
        )
        .is_ok(),
    );

    println!("E3 — Fig. 2 reordering example");
    let bo = behaviours_of("fig2-original", &opts);
    let bt = behaviours_of("fig2-transformed", &opts);
    check(
        "E3",
        "the original cannot print 1",
        !bo.contains(&vec![v(1)]),
    );
    check(
        "E3",
        "the transformed program can print 1",
        bt.contains(&vec![v(1)]),
    );
    let d = Domain::zero_to(1);
    let (fig2o, fig2t) = parse_pair("fig2-original", "fig2-transformed");
    let to = extract_traceset(&fig2o.program, &d, &ex);
    let tt = extract_traceset(&fig2t.program, &d, &ex);
    check(
        "E3",
        "[transformed] is a reordering of an elimination of [original] (§4 worked example)",
        is_elim_reordering_of(
            &tt.traceset,
            &to.traceset,
            &d,
            &EliminationOptions::default(),
        )
        .is_ok(),
    );

    println!("E4 — Fig. 3 irrelevant read introduction");
    let ba = behaviours_of("fig3-a", &opts);
    let bc = behaviours_of("fig3-c", &opts);
    let two_zeros = vec![v(0), v(0)];
    check("E4", "(a) cannot print two zeros", !ba.contains(&two_zeros));
    check(
        "E4",
        "(c) can print two zeros — the DRF guarantee is broken",
        bc.contains(&two_zeros),
    );
    check(
        "E4",
        "(a) is data race free",
        opts.races(&by_name("fig3-a").unwrap().parse().program)
            .output
            .is_none(),
    );
    // (b) → (c) is a *valid* elimination; the culprit is (a) → (b).
    let d = Domain::zero_to(1);
    let (fig3b, fig3c) = parse_pair("fig3-b", "fig3-c");
    let tb = extract_traceset(&fig3b.program, &d, &ex);
    let tc = extract_traceset(&fig3c.program, &d, &ex);
    check(
        "E4",
        "(b) → (c) is a valid semantic elimination",
        is_elimination_of(
            &tc.traceset,
            &tb.traceset,
            &d,
            &EliminationOptions::default(),
        )
        .is_ok(),
    );
    let (_, fig3b_shared_with_a) = parse_pair("fig3-a", "fig3-b");
    let ta = extract_traceset(&by_name("fig3-a").unwrap().parse().program, &d, &ex);
    let tb_a = extract_traceset(&fig3b_shared_with_a.program, &d, &ex);
    check(
        "E4",
        "(a) → (b) (read introduction) is NOT an elimination of (a)",
        is_elimination_of(
            &tb_a.traceset,
            &ta.traceset,
            &d,
            &EliminationOptions::default(),
        )
        .is_err(),
    );

    println!("E5 — Fig. 4 de-permutation walkthrough");
    let (x, y) = (Loc::normal(0), Loc::normal(1));
    let t_prime = Trace::from_actions([
        Action::start(ThreadId::new(0)),
        Action::write(x, v(1)),
        Action::read(y, v(1)),
        Action::external(v(1)),
    ]);
    let f = ReorderingFn::new(vec![0, 2, 1, 3]).unwrap();
    check(
        "E5",
        "f = {0↦0, 1↦2, 2↦1, 3↦3} is a reordering function",
        f.is_reordering_function_for(&t_prime),
    );
    for n in 0..=4 {
        let p = de_permute_prefix(&t_prime, &f, n);
        println!("    n = {n}: {p}");
    }
    check(
        "E5",
        "the full de-permutation restores the original order",
        de_permute_prefix(&t_prime, &f, 4)
            == Trace::from_actions([
                Action::start(ThreadId::new(0)),
                Action::read(y, v(1)),
                Action::write(x, v(1)),
                Action::external(v(1)),
            ]),
    );

    println!("E6 — Fig. 5 unelimination construction (Lemma 1)");
    let d = Domain::zero_to(1);
    let original = extract_traceset(&by_name("fig5-volatile").unwrap().parse().program, &d, &ex);
    let vol = by_name("fig5-volatile")
        .unwrap()
        .parse()
        .symbols
        .loc("v")
        .unwrap();
    let yloc = by_name("fig5-volatile")
        .unwrap()
        .parse()
        .symbols
        .loc("y")
        .unwrap();
    let i_prime = Interleaving::from_events([
        Event::new(ThreadId::new(0), Action::start(ThreadId::new(0))),
        Event::new(ThreadId::new(1), Action::start(ThreadId::new(1))),
        Event::new(ThreadId::new(0), Action::write(yloc, v(1))),
        Event::new(ThreadId::new(1), Action::read(vol, v(0))),
        Event::new(ThreadId::new(1), Action::external(v(0))),
    ]);
    let w = find_unelimination(
        &i_prime,
        &original.traceset,
        &d,
        &EliminationOptions::default(),
    )
    .expect("Lemma 1 construction");
    println!("    I' = {i_prime}");
    println!("    I  = {}", w.wild);
    println!("    f  = {}", w.matching);
    check(
        "E6",
        "the unelimination satisfies conditions (i)–(iv)",
        w.check(&i_prime),
    );
    check(
        "E6",
        "f moves the write of y to the last position (as in Fig. 5)",
        w.matching.get(2) == Some(w.wild.len() - 1),
    );
    check(
        "E6",
        "the instance of I is an execution with the same behaviour",
        w.wild.instance().is_sequentially_consistent()
            && w.wild.instance().behaviour() == i_prime.behaviour(),
    );

    println!("E7 — the §4 reorderability table");
    print!("{}", render_reorder_matrix());
    println!("\nall figure-level claims of the paper reproduce. ✔");
}
