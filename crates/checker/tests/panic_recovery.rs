//! Fault isolation end to end: a worker that panics mid-analysis is
//! quarantined by the pool, its siblings are cancelled, and the
//! analysis completes on the sequential reference engine — same
//! numbers, `faults > 0`, process alive.
//!
//! This file holds a single test: the injection hook is a
//! process-global one-shot, so a sibling test running a pool
//! concurrently could consume the armed panic.

use transafety_checker::{Analysis, Verdict};
use transafety_interleaving::par;
use transafety_lang::parse_program;

#[test]
fn injected_worker_panic_degrades_to_sequential_and_completes() {
    let program = parse_program("volatile v; v := 1; || r0 := v; print r0;")
        .expect("corpus-style program parses")
        .program;

    let reference = Analysis::new().jobs(4).run(&program);
    assert!(reference.completeness.is_complete());
    assert_eq!(reference.faults, 0);

    par::arm_worker_panic();
    let report = Analysis::new().jobs(4).run(&program);

    assert!(
        report.faults >= 1,
        "the injected panic must be quarantined and counted"
    );
    assert!(
        report.completeness.is_complete(),
        "recovery reruns the phase sequentially to completion"
    );
    assert_eq!(report.behaviours, reference.behaviours);
    assert_eq!(report.race, reference.race);
    assert_eq!(report.verdict, Verdict::DrfProven);

    // The census recovers the same way, on its own governor.
    let reference = Analysis::new().jobs(4).census(&program);
    assert!(reference.completeness.is_complete());
    assert_eq!(reference.faults, 0);
    par::arm_worker_panic();
    let census = Analysis::new().jobs(4).census(&program);
    assert!(
        census.faults >= 1,
        "the injected census panic must be quarantined and counted"
    );
    assert!(census.completeness.is_complete());
    assert_eq!(census.reachable_states, reference.reachable_states);
}
