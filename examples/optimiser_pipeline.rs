//! A miniature verified optimising compiler: greedily applies the
//! paper's safe transformations to shrink a program's memory traffic,
//! validating every step against the semantic classes (Lemmas 4/5) and
//! the DRF guarantee (Theorems 3/4).
//!
//! Run with `cargo run --example optimiser_pipeline`.

use transafety::checker::{check_rewrite, drf_guarantee, Analysis, Correspondence};
use transafety::lang::{parse_program, Program, Stmt};
use transafety::syntactic::{all_rewrites, Rewrite};

/// Cost = number of shared-memory accesses (what an optimiser wants to
/// shrink) with reorderings as tie-break enablers.
fn cost(p: &Program) -> usize {
    fn stmt_cost(s: &Stmt) -> usize {
        match s {
            Stmt::Load { .. } | Stmt::Store { .. } => 1,
            Stmt::Block(b) => b.iter().map(stmt_cost).sum(),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => stmt_cost(then_branch) + stmt_cost(else_branch),
            Stmt::While { body, .. } => stmt_cost(body),
            _ => 0,
        }
    }
    p.threads().iter().flatten().map(stmt_cost).sum()
}

/// One optimisation step: the elimination that reduces cost, or a
/// reordering/move that enables one later (breadth-1 lookahead).
fn pick_step(p: &Program) -> Option<Rewrite> {
    let rewrites = all_rewrites(p);
    // prefer genuine eliminations
    if let Some(rw) = rewrites.iter().find(|r| cost(&r.result) < cost(p)) {
        return Some(rw.clone());
    }
    // otherwise look one step ahead through a reordering
    rewrites.into_iter().find(|rw| {
        all_rewrites(&rw.result)
            .iter()
            .any(|next| cost(&next.result) < cost(p))
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A lock-disciplined worker whose body a compiler would love to
    // clean up: redundant loads, a dead store, and a store that can sink
    // into the critical section.
    let src = "
        r9 := scratch;
        lock m;
        r1 := shared;
        r2 := shared;     // redundant load (E-RAR)
        out := r1;
        out := r2;        // overwritten store (E-WBW)
        print r2;
        unlock m;
        ||
        lock m; shared := 1; unlock m;
    ";
    let original = parse_program(src)?.program;
    let opts = Analysis::new();
    println!(
        "original ({} memory accesses):\n{original}",
        cost(&original)
    );

    assert!(
        opts.races(&original).output.is_none(),
        "the pipeline input is DRF, so every step is covered by the theorems"
    );

    let mut current = original.clone();
    let mut step = 0;
    while let Some(rw) = pick_step(&current) {
        step += 1;
        // verify the step semantically (Lemma 4/5) …
        let corr = check_rewrite(&current, &rw, &opts);
        assert!(
            matches!(corr, Correspondence::Verified { .. }),
            "step {step} ({rw}) failed its semantic class: {corr:?}"
        );
        // … and end-to-end against the ORIGINAL program (composition of
        // safe transformations is safe — §8 "arbitrary composition").
        let verdict = drf_guarantee(&rw.result, &original, &opts);
        assert!(
            verdict.is_consistent_with_paper(),
            "step {step} ({rw}) broke the DRF guarantee: {verdict}"
        );
        println!("step {step}: {rw} — verified ({verdict})");
        current = rw.result;
        if step > 16 {
            break;
        }
    }

    println!(
        "\noptimised ({} memory accesses):\n{current}",
        cost(&current)
    );
    assert!(
        cost(&current) < cost(&original),
        "the pipeline made progress"
    );

    // The observable behaviours are identical (not merely refined) here:
    let b0 = opts.behaviours(&original).output;
    let b1 = opts.behaviours(&current).output;
    assert_eq!(b0.value, b1.value);
    println!("behaviours unchanged across {step} verified steps. ✔");
    Ok(())
}
