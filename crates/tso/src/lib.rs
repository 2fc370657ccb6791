//! Sun/x86-style TSO and SPARC-style PSO machines for the §6 language,
//! and the executable form of the paper's §8 claim that such a model is
//! *explained by* the paper's transformations (for TSO: write→read
//! reordering plus forwarding elimination; PSO adds write→write
//! reordering).
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
//! let e = explain(&ModelExplorer::new(&tso), &p, 3,
//!     &ExploreOptions::default(), &BudgetGuard::unlimited());
//! assert!(e.relaxed && e.explained);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! `transafety_checker::Analysis::explain` runs the same check under the
//! analysis's model and budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod configs;
mod explain;
mod machine;
mod model;
mod pso;

pub use explain::{explain, Explanation};
pub use machine::TsoState;
pub use model::{PsoModel, TsoModel};
pub use pso::PsoState;
