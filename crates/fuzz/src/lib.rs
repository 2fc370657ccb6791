//! Differential refinement fuzzing for the paper's transformation
//! rules: shrink-on-failure (program × pipeline) validation across
//! memory models.
//!
//! The crate closes the loop ROADMAP item 4 asks for — the claim that
//! the Fig. 10/11 rewrites are safe stops being a handful of sampled
//! property tests and becomes a continuously fuzzed refinement check:
//!
//! 1. [`pipeline`] composes random, serialisable, shrinkable sequences
//!    of syntactic passes (eliminations, reorderings, combined) and
//!    applies them deterministically;
//! 2. [`oracle`] runs the original and transformed programs through the
//!    budgeted [`Analysis`](transafety_checker::Analysis) engine under
//!    SC, TSO or PSO and checks behaviour-set and verdict refinement,
//!    cross-validating divergences against
//!    `classify_transformation_under` — a kind flagged unsafe under a
//!    model must eventually yield a divergence witness, a safe kind
//!    must never;
//! 3. [`shrink`] delta-debugs a failing pair down to a minimal witness
//!    (statement/thread removal and constant simplification on the
//!    program side, drop/truncate/halve on the pipeline side);
//! 4. [`driver`] soaks 10⁵+ (program, pipeline) pairs per run across
//!    `--jobs` threads, every case inside a per-case
//!    [`Budget`](transafety_interleaving::Budget) and `catch_unwind`
//!    fault boundary, and reports a `fuzz` section in the
//!    `drfcheck-stats-v2` JSON ([`stats`]).
//!
//! [`seeded`] carries hand-written known-unsafe positive controls
//! (overwritten-write elimination and a load→store reordering, both
//! divergent under TSO) that every run must detect and minimise, and
//! [`witness`] persists minimised counterexamples as replayable
//! `.tsl` + `.pipeline` pairs — the format `tests/regressions/` stores.
//!
//! # Example
//!
//! ```
//! use transafety_fuzz::{check_pair, Outcome, OracleConfig, Pipeline};
//! use transafety_lang::parse_program;
//! use transafety_traces::MemoryModelKind;
//!
//! // E-RAR on a single thread refines under every model.
//! let p = parse_program("r1 := x; r2 := x; print r2;")?.program;
//! let pipe: Pipeline = "elim:0".parse()?;
//! let report = check_pair(&p, &pipe, &OracleConfig::for_model(MemoryModelKind::Tso));
//! assert!(matches!(report.outcome, Outcome::Refines));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod oracle;
pub mod pipeline;
pub mod seeded;
pub mod shrink;
pub mod stats;
pub mod witness;

pub use driver::{derive_case, run_soak, soak_generator_configs, SoakConfig, SoakReport};
pub use oracle::{check_pair, CaseReport, Divergence, DivergenceKind, OracleConfig, Outcome};
pub use pipeline::{Application, AppliedPass, Pass, PassSet, Pipeline, PipelineConfig};
pub use seeded::{known_unsafe_cases, replay, resolve, SeededCase, SeededResult};
pub use shrink::{minimise, program_shrinks, statement_count, Minimised};
pub use stats::FuzzStats;
pub use witness::{load_witness, pipeline_for_rules, Witness};
