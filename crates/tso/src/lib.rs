//! A Sun/x86-style TSO machine for the §6 language, and the executable
//! form of the paper's §8 claim that TSO is *explained by* the paper's
//! transformations (write→read reordering plus forwarding elimination).
//!
//! # Example
//!
//! ```
//! use transafety_lang::{parse_program, ExploreOptions};
//! use transafety_tso::explain_tso;
//!
//! // the store-buffering litmus test
//! let p = parse_program(
//!     "x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;")?.program;
//! let e = explain_tso(&p, 3, &ExploreOptions::default());
//! assert!(e.relaxed && e.explained);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod configs;
mod explain;
mod machine;
mod model;
mod pso;

pub use explain::{explain_tso, tso_fragment, TsoExplanation};
pub use machine::TsoState;
pub use model::{PsoModel, TsoModel};
pub use pso::{explain_pso, pso_fragment, PsoExplanation, PsoState};
