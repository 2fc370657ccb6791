//! Theorem-level decision procedures for the paper's claims on concrete
//! programs:
//!
//! * [`drf_guarantee`] — Theorems 1–4: a transformation of a data-race
//!   free program may not add behaviours and must preserve data race
//!   freedom;
//! * [`check_rewrite`] — Lemmas 4/5: each syntactic rewrite lands in its
//!   promised semantic class (elimination, reordering∘elimination, or
//!   traceset identity);
//! * [`no_thin_air`] — Theorem 5: no composition of safe rewrites can
//!   make a program read, write or output an unmentioned constant;
//! * [`sc_only_accepts`] — the SC-preserving baseline compiler the paper
//!   argues against (§1, §7);
//! * [`classify_transformation`] — one-shot classification of a
//!   transformation into the strongest safe class that holds.
//!
//! # Example
//!
//! ```
//! use transafety_checker::{drf_guarantee, Analysis, DrfVerdict};
//! use transafety_lang::parse_program;
//!
//! let original = parse_program(
//!     "lock m; r1 := x; r2 := x; print r2; unlock m; || lock m; x := 1; unlock m;")?.program;
//! let transformed = parse_program(
//!     "lock m; r1 := x; r2 := r1; print r2; unlock m; || lock m; x := 1; unlock m;")?.program;
//! assert_eq!(
//!     drf_guarantee(&transformed, &original, &Analysis::new()),
//!     DrfVerdict::Holds,
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod correspondence;
mod delay_set;
mod guarantee;
mod oota;
mod options;

pub use classify::{
    classify_transformation, classify_transformation_under, ModelClassification,
    TransformationClass,
};
pub use correspondence::{
    check_elimination_correspondence, check_identity_correspondence,
    check_reordering_correspondence, check_rewrite, classify, Correspondence, SemanticClass,
};
pub use delay_set::{access_sites, delay_set, delay_stats, AccessSite, DelaySet, DelayStats};
pub use guarantee::{
    behaviour_refinement, drf_guarantee, execution_with_behaviour, sc_only_accepts, DrfVerdict,
    Refinement,
};
pub use oota::{no_thin_air, traceset_has_origin, OotaVerdict};
pub use options::{Analysis, AnalysisReport, CensusReport, PhaseReport, Verdict};
pub use transafety_interleaving::{
    Budget, BudgetBound, CancelToken, Completeness, ExploreStats, TraceEvent, TruncationReason,
};
pub use transafety_lang::{MemoryModel, ModelExplorer, ModelRaceWitness, ScheduleStep};
pub use transafety_traces::MemoryModelKind;
pub use transafety_transform::EliminationKind;
// The §8 explanation that `Analysis::explain` reports, so its result can
// be named without depending on the tso crate directly.
pub use transafety_tso::Explanation;
