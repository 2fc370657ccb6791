//! Fault isolation end to end: a worker that panics mid-exploration is
//! quarantined by the pool, its siblings are cancelled, and the
//! exploration completes on the sequential engine — same answer,
//! a recorded fault, process alive.
//!
//! The verdict phases of `Analysis` run sequentially at every job
//! count, so the pool's guarded users here are the §3 traceset
//! explorer's parallel drivers.
//!
//! This file holds a single test: the injection hook is a
//! process-global one-shot, so a sibling test running a pool
//! concurrently could consume the armed panic.

use transafety_checker::{Analysis, Verdict};
use transafety_interleaving::{par, BudgetGuard, Explorer};
use transafety_lang::{extract_traceset, parse_program};

#[test]
fn injected_worker_panic_degrades_to_sequential_and_completes() {
    let program = parse_program("volatile v; v := 1; || r0 := v; print r0;")
        .expect("corpus-style program parses")
        .program;
    let opts = Analysis::new().jobs(4);

    // The analysis never starts the pool, so an armed panic stays
    // armed through it.
    par::arm_worker_panic();
    let report = opts.run(&program);
    assert_eq!(report.faults, 0);
    assert!(report.completeness.is_complete());
    assert_eq!(report.verdict, Verdict::DrfProven);

    let traceset = extract_traceset(&program, &opts.domain, &opts.extract).traceset;
    let explorer = Explorer::new(&traceset);
    let reference = explorer.behaviours();

    let guard = BudgetGuard::unlimited();
    let behaviours = explorer.behaviours_par_governed(4, &guard);
    assert!(
        guard.faults() >= 1,
        "the injected panic must be quarantined and counted"
    );
    assert_eq!(
        guard.trip_reason(),
        None,
        "recovery reruns the phase sequentially to completion"
    );
    assert_eq!(behaviours, reference);

    // The race search recovers the same way.
    par::arm_worker_panic();
    let guard = BudgetGuard::unlimited();
    let race = explorer.race_witness_par_governed(4, &guard);
    assert!(
        guard.faults() >= 1,
        "the injected race-search panic must be quarantined and counted"
    );
    assert_eq!(guard.trip_reason(), None);
    assert_eq!(race, None);
}
