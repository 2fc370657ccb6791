//! Library bugs `drfbench bless` found, kept as failing tests until they
//! are fixed. Bless refuses to write a pool while the default path
//! disagrees with a reference engine, so generated programs that show
//! one of these bugs cannot enter a pool unnoticed.
//!
//! Run with `cargo test --manifest-path drfbench/Cargo.toml -- --ignored`.

use transafety::lang::parse_program;
use transafety::{Analysis, MemoryModelKind};

/// A generated program whose TSO and PSO behaviour sets lose `[0, 1]`
/// under the partial-order reduction; the unreduced engine and SC have
/// it.
const LOSES_A_BEHAVIOUR: &str = "\
l1 := r2; if (r2 != 1) r1 := l1; else { lock m0; r1 := l0; unlock m0; } print r1; r1 := l1;
|| r2 := 1; print r0; if (r1 == 1) r0 := 1; else if (r0 == 1) { lock m0; r0 := l0; unlock m0; }
   else { lock m0; l1 := r2; unlock m0; } r1 := 2;
";

#[test]
#[ignore = "known bug: the TSO/PSO partial-order reduction drops the behaviour [0, 1]"]
fn relaxed_reduction_keeps_every_behaviour() {
    let program = parse_program(LOSES_A_BEHAVIOUR).unwrap().program;
    for model in [MemoryModelKind::Tso, MemoryModelKind::Pso] {
        let reduced = Analysis::new().model(model).jobs(1).run(&program);
        let full = Analysis::new()
            .model(model)
            .jobs(1)
            .por(false)
            .run(&program);
        assert!(reduced.behaviours.complete && full.behaviours.complete);
        assert_eq!(
            reduced.behaviours.value, full.behaviours.value,
            "{model}: reduced and unreduced behaviour sets differ"
        );
    }
}
