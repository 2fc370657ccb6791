//! # transafety — safe optimisations for shared-memory concurrent programs
//!
//! An executable reproduction of Ševčík, *Safe Optimisations for
//! Shared-Memory Concurrent Programs* (PLDI 2011): the language
//! independent trace semantics, the semantic **elimination** and
//! **reordering** transformation classes, the DRF-guarantee and
//! out-of-thin-air theorems as bounded decision procedures, the §6
//! imperative language with its syntactic transformations, and a TSO
//! machine for the §8 connection.
//!
//! The crate is a facade: each subsystem lives in its own crate and is
//! re-exported here as a module.
//!
//! | module | contents |
//! |---|---|
//! | [`traces`] | actions, traces, wildcard traces, tracesets (§3) |
//! | [`interleaving`] | interleavings, executions, happens-before, DRF (§3) |
//! | [`transform`] | semantic eliminations & reorderings, unelimination, origins (§4–§5) |
//! | [`lang`] | the §6 language: AST, parser, small-step semantics, explorer |
//! | [`syntactic`] | the Fig. 10/11 rewrite rules and the Fig. 9 engine (§6.1) |
//! | [`checker`] | Theorems 1–5 as decision procedures on concrete programs |
//! | [`tso`] | store-buffer machine and the §8 "TSO is explained" check |
//! | [`litmus`] | the program corpus and the random workload generator |
//! | [`fuzz`] | differential refinement fuzzing: pipelines, oracle, shrinker, soak |
//!
//! # Quickstart
//!
//! Verify the DRF guarantee for a redundant-read elimination found by
//! the syntactic engine:
//!
//! ```
//! use transafety::checker::{check_rewrite, drf_guarantee, Correspondence, DrfVerdict};
//! use transafety::lang::parse_program;
//! use transafety::syntactic::elimination_rewrites;
//! use transafety::Analysis;
//!
//! let original = parse_program(
//!     "lock m; r1 := x; r2 := x; print r2; unlock m; || lock m; x := 1; unlock m;",
//! )?.program;
//! let opts = Analysis::new();
//! for rewrite in elimination_rewrites(&original) {
//!     // Lemma 4: the rewrite is a semantic elimination …
//!     assert!(matches!(check_rewrite(&original, &rewrite, &opts),
//!         Correspondence::Verified { .. }));
//!     // … and Theorem 3: the DRF guarantee holds for it.
//!     assert_eq!(drf_guarantee(&rewrite.result, &original, &opts), DrfVerdict::Holds);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use transafety_checker as checker;
pub use transafety_interleaving as interleaving;

pub use transafety_checker::{Analysis, AnalysisReport, CensusReport, PhaseReport, Verdict};
pub use transafety_fuzz as fuzz;
pub use transafety_interleaving::available_jobs;
pub use transafety_interleaving::{
    Budget, BudgetBound, CancelToken, Completeness, TruncationReason,
};
pub use transafety_lang as lang;
pub use transafety_litmus as litmus;
pub use transafety_serve as serve;
pub use transafety_syntactic as syntactic;
pub use transafety_traces as traces;
pub use transafety_traces::MemoryModelKind;
pub use transafety_transform as transform;
pub use transafety_tso as tso;
