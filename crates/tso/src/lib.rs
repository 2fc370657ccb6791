//! Sun/x86-style TSO and SPARC-style PSO machines for the §6 language,
//! and the executable form of the paper's §8 claim that such a model is
//! *explained by* the paper's transformations (for TSO: write→read
//! reordering plus forwarding elimination; PSO adds write→write
//! reordering).
//!
//! The machines add store buffers to the memory only; SC is the machine
//! whose buffers are always empty. Each model owns the program's
//! [`ProgramExplorer`](transafety_lang::ProgramExplorer), whose
//! configuration table holds its threads, and answers the memory
//! questions of [`MemoryModel`](transafety_lang::MemoryModel): what a
//! thread reads (store-to-load forwarding), what it has buffered, which
//! flushes are enabled and how a move changes the state. Everything
//! else — the move generator with its fence rule, the partial-order
//! reduction, the fuel policy and the lift of an SC race witness to a
//! buffered schedule — is the one generic implementation of
//! [`ModelExplorer`](transafety_lang::ModelExplorer), shared with SC.
//!
//! # Example
//!
//! ```
//! use transafety_interleaving::BudgetGuard;
//! use transafety_lang::{parse_program, ExploreOptions, ModelExplorer};
//! use transafety_tso::{explain, TsoModel};
//!
//! // the store-buffering litmus test
//! let p = parse_program(
//!     "x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;")?.program;
//! let tso = TsoModel::new(&p);
//! let e = explain(&ModelExplorer::new(&tso), 3,
//!     &ExploreOptions::default(), &BudgetGuard::unlimited());
//! assert!(e.relaxed && e.explained);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! `transafety_checker::Analysis::explain` runs the same check under the
//! analysis's model and budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explain;
mod machine;
mod pso;

pub use explain::{explain, Explanation};
pub use machine::{TsoModel, TsoState};
pub use pso::{PsoModel, PsoState};
