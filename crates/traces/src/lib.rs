//! Trace semantics for shared-memory concurrent programs.
//!
//! This crate implements the language-independent trace semantics of
//! Ševčík, *Safe Optimisations for Shared-Memory Concurrent Programs*
//! (PLDI 2011), §3: memory actions, traces of single threads, wildcard
//! traces, and prefix-closed *tracesets* representing whole programs.
//!
//! The higher layers of the reproduction build on these types:
//! interleavings and data-race freedom live in `transafety-interleaving`,
//! the semantic elimination/reordering transformations in
//! `transafety-transform`, and the concrete §6 language in
//! `transafety-lang`.
//!
//! # Example
//!
//! Build the traceset of thread 1 of the reordering example (Fig. 2 of the
//! paper): `r1:=y; x:=1; print r1` over the value domain `{0, 1}`.
//!
//! ```
//! use transafety_traces::{Action, Domain, Loc, ThreadId, Trace, Traceset, Value};
//!
//! let x = Loc::normal(0);
//! let y = Loc::normal(1);
//! let mut set = Traceset::new();
//! for v in Domain::zero_to(1).iter() {
//!     set.insert(Trace::from_actions([
//!         Action::start(ThreadId::new(1)),
//!         Action::read(y, v),
//!         Action::write(x, Value::new(1)),
//!         Action::external(v),
//!     ]))?;
//! }
//! // Tracesets are prefix closed: every prefix is a member.
//! assert!(set.contains_actions(&[Action::start(ThreadId::new(1))]));
//! assert_eq!(set.maximal_traces().count(), 2);
//! # Ok::<(), transafety_traces::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod domain;
mod error;
mod ids;
mod matching;
mod model;
mod trace;
mod traceset;
mod value;
mod wildcard;

pub use action::Action;
pub use domain::Domain;
pub use error::TraceError;
pub use ids::{Loc, Monitor, ThreadId};
pub use matching::{Matching, MatchingConflict};
pub use model::{MemoryModelKind, UnknownModel};
pub use trace::Trace;
pub use traceset::{Cursor, MaximalTraces, Traceset, TracesetTraces};
pub use value::Value;
pub use wildcard::{WildAction, WildTrace};
