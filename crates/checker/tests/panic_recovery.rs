//! Fault isolation end to end on `parallel_map`'s users: an item that
//! panics on a worker is quarantined, and the map recomputes it on the
//! calling thread — same answer as at jobs 1, process alive.
//!
//! The verdict phases of `Analysis` run sequentially at every job
//! count and never start the map. Its users here are `classify`'s
//! traceset pair and the no-thin-air closure scan.
//!
//! This file holds a single test: the injection hook is a
//! process-global one-shot, so a sibling test running a map
//! concurrently could consume the armed panic.

use transafety_checker::{classify_transformation, no_thin_air, Analysis, Verdict};
use transafety_interleaving::par;
use transafety_lang::parse_program;
use transafety_traces::Value;

#[test]
fn injected_worker_panic_is_recomputed_by_the_pools_users() {
    let program = |src: &str| parse_program(src).expect("program parses").program;
    let original = program("r0 := x; r1 := x; print r1; || x := 1;");
    let transformed = program("r0 := x; r1 := r0; print r1; || x := 1;");

    // The analysis never starts the map, so an armed panic stays armed
    // through it.
    par::arm_worker_panic();
    let report = Analysis::new().jobs(4).run(&original);
    assert!(report.completeness.is_complete());
    assert_eq!(report.verdict, Verdict::Racy);
    assert!(par::worker_panic_armed(), "the analysis consumed the hook");

    // classify extracts its traceset pair with `parallel_map` on two
    // workers: the poisoned extraction is recomputed inline.
    let reference = classify_transformation(&transformed, &original, &Analysis::new());
    par::arm_worker_panic();
    let class = classify_transformation(&transformed, &original, &Analysis::new().jobs(2));
    assert!(!par::worker_panic_armed(), "classify's map did not run");
    assert_eq!(class, reference);

    // The no-thin-air scan fans the transformation closure out the
    // same way.
    let seven = Value::new(7);
    let reference = no_thin_air(&original, seven, 2, &Analysis::new());
    par::arm_worker_panic();
    let verdict = no_thin_air(&original, seven, 2, &Analysis::new().jobs(4));
    assert!(
        !par::worker_panic_armed(),
        "the closure scan's map did not run"
    );
    assert_eq!(verdict, reference);
}
