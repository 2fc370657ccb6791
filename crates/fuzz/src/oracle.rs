//! The per-model refinement oracle.
//!
//! For a (program, pipeline, model) triple the oracle applies the
//! pipeline and compares the behaviour sets and race verdicts of the
//! original and the transformed program under the chosen memory model
//! (each side runs [`Analysis::run`] on its own budget, and the
//! behaviour sets are compared by the checker's one refinement rule,
//! [`Refinement::compare`]).  Refinement is *required* exactly when the
//! paper promises it:
//!
//! - the original is DRF under the model (Theorems 1–4 plus the model's
//!   DRF guarantee), or
//! - every applied pass is unconditionally refining under the model —
//!   trace-preserving moves, and the §8 fragment rules the model's own
//!   machine performs (see
//!   [`AppliedPass::unconditionally_refines_under`]).
//!
//! A divergence where refinement was required is a [`Outcome::Violation`]
//! (a soundness bug in the rules, the machines or the classifier); a
//! divergence on a racy original outside the fragment is an
//! [`Outcome::ExpectedDivergence`] — the Fig. 1 phenomenon, and under
//! TSO/PSO exactly the witness that justifies
//! `classify_transformation_under` flagging the kind.

use std::time::{Duration, Instant};

use transafety_checker::{classify_transformation_under, Analysis, Refinement, Verdict};
use transafety_interleaving::Budget;
use transafety_lang::Program;
use transafety_traces::{MemoryModelKind, Value};
use transafety_transform::EliminationKind;

use crate::pipeline::{AppliedPass, Pipeline};

/// Oracle configuration: the model to check under and the per-side
/// analysis budget.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// The memory model both sides are explored under.
    pub model: MemoryModelKind,
    /// Per-side exploration budget (a case runs at most two full
    /// analyses plus, on divergence, one classification).
    pub budget: Budget,
    /// Worker threads handed to each analysis (keep at 1 inside the
    /// fuzz driver, which already runs cases in parallel).
    pub jobs: usize,
    /// Partial-order reduction toggle (mirrors `TRANSAFETY_NO_POR`).
    pub por: bool,
}

impl OracleConfig {
    /// A config for `model` with the default fuzzing budget
    /// (200 ms / 50 000 states per side).
    #[must_use]
    pub fn for_model(model: MemoryModelKind) -> Self {
        OracleConfig {
            model,
            budget: Budget::unlimited()
                .timeout(Duration::from_millis(200))
                .max_states(50_000),
            jobs: 1,
            por: true,
        }
    }

    /// The `Analysis` both oracle sides run through.
    #[must_use]
    pub fn analysis(&self) -> Analysis {
        Analysis::new()
            .model(self.model)
            .jobs(self.jobs.max(1))
            .budget(self.budget)
            .por(self.por)
    }
}

/// How the transformed program escaped the original's envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// A behaviour (print sequence) of the transformed program that the
    /// original cannot produce under the model.
    NewBehaviour(Vec<Value>),
    /// The original is DRF under the model but the transformed program
    /// races.
    RaceIntroduced,
}

/// A concrete divergence witness plus the classifier's opinion of the
/// transformation that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// What diverged.
    pub kind: DivergenceKind,
    /// `classify_transformation_under(..).safe_under_model` for the
    /// pair — recorded for cross-validation (a divergence where
    /// refinement was *required* yet the classifier says safe is
    /// upgraded to a violation by the caller's expectation logic).
    pub classifier_safe: bool,
    /// The elimination kinds the classifier flagged under the model
    /// (e.g. `OverwrittenWrite` under TSO).
    pub flagged_kinds: Vec<EliminationKind>,
}

/// The oracle's verdict on one (program, pipeline, model) case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// No pass changed the program.
    Identity,
    /// Refinement checked and holds.
    Refines,
    /// A budget tripped before the check could be decided.
    Inconclusive,
    /// Divergence on a racy original outside the model's fragment —
    /// allowed, and the witness the classifier's flag predicts.
    ExpectedDivergence(Divergence),
    /// Divergence where refinement was required: a soundness bug.
    Violation(Divergence),
}

impl Outcome {
    /// `true` for [`Outcome::Violation`].
    #[must_use]
    pub fn is_violation(&self) -> bool {
        matches!(self, Outcome::Violation(_))
    }

    /// `true` for either divergence outcome.
    #[must_use]
    pub fn is_divergence(&self) -> bool {
        matches!(self, Outcome::Violation(_) | Outcome::ExpectedDivergence(_))
    }
}

/// One oracle run, with enough context to report or replay it.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The oracle verdict.
    pub outcome: Outcome,
    /// The model checked under.
    pub model: MemoryModelKind,
    /// The passes that actually fired.
    pub applied: Vec<AppliedPass>,
    /// The original program's verdict under the model.
    pub original_verdict: Verdict,
    /// The transformed program's verdict under the model.
    pub transformed_verdict: Verdict,
    /// The transformed program (for witness reporting).
    pub transformed: Program,
    /// Wall-clock time the case took.
    pub elapsed: Duration,
}

/// Run the refinement oracle on one (program, pipeline) pair under
/// `config`.
#[must_use]
pub fn check_pair(program: &Program, pipeline: &Pipeline, config: &OracleConfig) -> CaseReport {
    let start = Instant::now();
    let application = pipeline.apply(program);
    let analysis = config.analysis();

    if application.is_identity() {
        return CaseReport {
            outcome: Outcome::Identity,
            model: config.model,
            applied: application.applied,
            original_verdict: Verdict::Unknown,
            transformed_verdict: Verdict::Unknown,
            transformed: application.result,
            elapsed: start.elapsed(),
        };
    }

    let original = analysis.run(program);
    let transformed = analysis.run(&application.result);

    let original_drf = original.verdict == Verdict::DrfProven;
    let required = original_drf || application.unconditionally_refines_under(config.model);

    let refinement = Refinement::compare(&transformed.behaviours, &original.behaviours);
    let divergence_kind = match &refinement {
        Refinement::NewBehaviour(b) => Some(DivergenceKind::NewBehaviour(b.clone())),
        // A proven-DRF original ran complete, so its behaviour set is
        // complete too.
        _ if original_drf && transformed.verdict == Verdict::Racy => {
            Some(DivergenceKind::RaceIntroduced)
        }
        _ => None,
    };

    let outcome = match divergence_kind {
        Some(kind) => {
            // Cross-validate against the model-aware classifier; only
            // divergent cases pay for the (expensive) classification.
            let classification =
                classify_transformation_under(&application.result, program, &analysis);
            let divergence = Divergence {
                kind,
                classifier_safe: classification.safe_under_model,
                flagged_kinds: classification.flagged_kinds,
            };
            if required {
                Outcome::Violation(divergence)
            } else {
                Outcome::ExpectedDivergence(divergence)
            }
        }
        // Full refinement established. When the original is DRF the
        // transformed side must also stay DRF; `Unknown` with complete
        // behaviours cannot happen (complete runs are
        // verdict-conclusive), so only `Racy` trips above.
        None if refinement == Refinement::Refines => Outcome::Refines,
        None => Outcome::Inconclusive,
    };

    CaseReport {
        outcome,
        model: config.model,
        applied: application.applied,
        original_verdict: original.verdict,
        transformed_verdict: transformed.verdict,
        transformed: application.result,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_lang::parse_program;

    fn oracle(model: MemoryModelKind) -> OracleConfig {
        OracleConfig {
            budget: Budget::unlimited()
                .timeout(Duration::from_secs(5))
                .max_states(200_000),
            ..OracleConfig::for_model(model)
        }
    }

    #[test]
    fn identity_pipeline_is_identity() {
        let p = parse_program("x := 1; || r0 := x; print r0;")
            .unwrap()
            .program;
        let report = check_pair(&p, &Pipeline::identity(), &oracle(MemoryModelKind::Sc));
        assert_eq!(report.outcome, Outcome::Identity);
    }

    #[test]
    fn forwarding_elimination_refines_under_all_models() {
        // E-RAW on a single thread: safe under SC, and in the §8
        // fragment under TSO/PSO — must refine everywhere.
        let p = parse_program("x := r0; r1 := x; print r1; || y := r0;")
            .unwrap()
            .program;
        let pipe: Pipeline = "elim:0".parse().unwrap();
        for model in [
            MemoryModelKind::Sc,
            MemoryModelKind::Tso,
            MemoryModelKind::Pso,
        ] {
            let report = check_pair(&p, &pipe, &oracle(model));
            assert!(
                matches!(report.outcome, Outcome::Refines | Outcome::Identity),
                "{model:?}: {:?}",
                report.outcome
            );
        }
    }

    #[test]
    fn overwritten_write_elimination_diverges_under_tso() {
        // T0 buffers x:=1 before y:=1: under TSO the FIFO store buffer
        // makes x==1 visible no later than y==1.  Eliminating the
        // overwritten write drops that ordering, so the reader can see
        // y==1, x==0 and take the guarded print — a behaviour the
        // original cannot produce.  The original is racy, E-WBW is
        // outside the TSO fragment, and the classifier flags
        // OverwrittenWrite: an *expected* divergence.  (Register moves
        // are hoisted so the between-stores segment is move-free.)
        let p = parse_program(
            "r0 := 1; r1 := 1; r2 := 2; x := r0; y := r1; x := r2; \
             || r3 := y; r4 := x; if (r4 == 0) print r3;",
        )
        .unwrap()
        .program;
        let rewrites = transafety_syntactic::elimination_rewrites(&p);
        let idx = rewrites
            .iter()
            .position(|r| r.rule == transafety_syntactic::RuleName::EWbw)
            .expect("E-WBW applies");
        let pipe = Pipeline {
            passes: vec![crate::pipeline::Pass {
                set: crate::pipeline::PassSet::Eliminations,
                pick: u32::try_from(idx).unwrap(),
            }],
        };
        let report = check_pair(&p, &pipe, &oracle(MemoryModelKind::Tso));
        match &report.outcome {
            Outcome::ExpectedDivergence(d) => {
                assert!(!d.classifier_safe, "E-WBW must be flagged under TSO");
                assert!(d.flagged_kinds.contains(&EliminationKind::OverwrittenWrite));
                assert!(matches!(d.kind, DivergenceKind::NewBehaviour(_)));
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn drf_original_never_diverges() {
        // A lock-disciplined program is DRF; every safe rewrite must
        // refine under every model (Theorems 1–4 + DRF guarantee).
        let p = parse_program(
            "lock m; x := r0; r1 := x; unlock m; print r1; || lock m; x := r2; unlock m;",
        )
        .unwrap()
        .program;
        for model in [
            MemoryModelKind::Sc,
            MemoryModelKind::Tso,
            MemoryModelKind::Pso,
        ] {
            for pick in 0..4u32 {
                let pipe = Pipeline {
                    passes: vec![crate::pipeline::Pass {
                        set: crate::pipeline::PassSet::Any,
                        pick,
                    }],
                };
                let report = check_pair(&p, &pipe, &oracle(model));
                assert!(
                    !report.outcome.is_divergence(),
                    "{model:?} pick {pick}: {:?}",
                    report.outcome
                );
            }
        }
    }
}
