//! Interleavings, sequentially consistent executions and data-race
//! freedom (§3 of the paper).
//!
//! An [`Interleaving`] is a sequence of thread-identifier/action pairs
//! ([`Event`]s). An interleaving of a traceset must project to member
//! traces thread-wise and respect mutual exclusion; an interleaving is an
//! *execution* when every read sees the most recent write (sequential
//! consistency). The [`Explorer`] enumerates the executions of a finite
//! [`Traceset`](transafety_traces::Traceset) exhaustively, computes the
//! program's *behaviours* (prefix-closed sets of external-action value
//! sequences) and decides *data-race freedom*.
//!
//! The paper gives two equivalent definitions of a data race — two
//! adjacent conflicting actions from different threads, and conflicting
//! accesses unordered by [happens-before](HappensBefore) — both are
//! implemented ([`Interleaving::first_adjacent_race`],
//! [`Interleaving::hb_unordered_conflicts`]) and their equivalence is
//! checked in the integration suite.
//!
//! # Example
//!
//! Fig. 2 of the paper (original program): the program cannot print 1
//! because thread 1 reads `y` before it writes `x`.
//!
//! ```
//! use transafety_traces::{Action, Domain, Loc, ThreadId, Trace, Traceset, Value};
//! use transafety_interleaving::Explorer;
//!
//! let (x, y) = (Loc::normal(0), Loc::normal(1));
//! let d = Domain::zero_to(1);
//! let mut t = Traceset::new();
//! for v in d.iter() {
//!     // Thread 0: r2:=x; y:=r2
//!     t.insert(Trace::from_actions([
//!         Action::start(ThreadId::new(0)),
//!         Action::read(x, v),
//!         Action::write(y, v),
//!     ]))?;
//!     // Thread 1: r1:=y; x:=1; print r1
//!     t.insert(Trace::from_actions([
//!         Action::start(ThreadId::new(1)),
//!         Action::read(y, v),
//!         Action::write(x, Value::new(1)),
//!         Action::external(v),
//!     ]))?;
//! }
//! let behaviours = Explorer::new(&t).behaviours();
//! assert!(behaviours.contains(&vec![Value::new(0)]));
//! assert!(!behaviours.contains(&vec![Value::new(1)])); // cannot print 1
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod dot;
mod event;
mod explore;
mod happens_before;
mod indexed;
mod interleaving;
pub mod intern;
pub mod metrics;
pub mod par;
mod wild;

pub use budget::{Budget, BudgetBound, BudgetGuard, CancelToken, Completeness, TruncationReason};
pub use dot::hb_dot;
pub use event::Event;
pub use explore::{Behaviours, ExploreLimits, Explorer, RaceWitness};
pub use happens_before::HappensBefore;
pub use indexed::IndexedTraceset;
pub use interleaving::Interleaving;
pub use metrics::{ExploreMetrics, ExploreStats, TraceEvent};
pub use par::available_jobs;
pub use wild::{WildEvent, WildInterleaving};
