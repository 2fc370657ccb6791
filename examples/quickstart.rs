//! Quickstart: parse a concurrent program, decide data race freedom,
//! enumerate its compiler optimisations, and verify every one of them
//! against the paper's theorems.
//!
//! Run with `cargo run --example quickstart`.

use transafety::checker::{check_rewrite, drf_guarantee, Analysis, Correspondence, DrfVerdict};
use transafety::lang::parse_program;
use transafety::syntactic::all_rewrites;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A lock-disciplined producer/consumer pair with a redundant read
    // and an access that can sink into the critical section.
    let src = "
        // producer
        lock m; x := 1; x := 2; unlock m;
        ||
        // consumer
        r3 := y;
        lock m; r1 := x; r2 := x; print r2; unlock m;
    ";
    let original = parse_program(src)?.program;
    let opts = Analysis::new();

    println!("original program:\n{original}");

    // 1. Data race freedom (§3).
    match opts.races(&original).output {
        None => println!("the program is DATA RACE FREE\n"),
        Some(w) => println!("data race: {}\n", w.witness),
    }

    // 2. Every applicable optimisation of Fig. 10/11, verified.
    let rewrites = all_rewrites(&original);
    println!("{} applicable transformations:", rewrites.len());
    for rw in &rewrites {
        let corr = check_rewrite(&original, rw, &opts);
        let verdict = drf_guarantee(&rw.result, &original, &opts);
        let corr_str = match corr {
            Correspondence::Verified { class } => format!("semantic class: {class}"),
            other => format!("UNEXPECTED: {other:?}"),
        };
        println!("  {rw:<40} {corr_str}; {verdict}");
        assert!(
            verdict.is_consistent_with_paper(),
            "a safe rule violated the DRF guarantee — this would falsify the paper"
        );
    }

    // 3. Pick one elimination and show the optimised program.
    if let Some(rw) = rewrites.iter().find(|r| r.rule.is_elimination()) {
        println!("\nafter {}:\n{}", rw.rule, rw.result);
        assert_eq!(
            drf_guarantee(&rw.result, &original, &opts),
            DrfVerdict::Holds
        );
    }
    Ok(())
}
