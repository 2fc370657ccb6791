//! Executable correspondence between syntactic and semantic
//! transformations (Lemmas 4 and 5 of the paper).
//!
//! Lemma 4: if `P ⇒e P'` then `[P']` is a semantic elimination of `[P]`.
//! Lemma 5: if `P ⇒r P'` then `[P']` is a reordering of an elimination
//! of `[P]`. This module decides both claims for concrete programs by
//! extracting bounded tracesets and running the witness searches of
//! `transafety-transform`.

use std::fmt;

use transafety_lang::{extract_traceset, Program};
use transafety_syntactic::{Rewrite, RuleName};
use transafety_traces::{Trace, Traceset};
use transafety_transform::{find_elimination, is_elim_reordering_of, EliminationWitness};

use crate::Analysis;

/// The outcome of checking one syntactic rewrite against its semantic
/// class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Correspondence {
    /// The transformed traceset is in the expected semantic class.
    Verified {
        /// Which semantic class was established.
        class: SemanticClass,
    },
    /// A member trace of the transformed traceset without a semantic
    /// witness — this would falsify Lemma 4/5 on this instance.
    Failed {
        /// The witness-less trace.
        trace: Trace,
    },
    /// Traceset extraction hit its bounds; no verdict.
    Inconclusive,
}

/// The semantic transformation class a rewrite was validated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemanticClass {
    /// `[P']` is an elimination of `[P]` (§4).
    Elimination,
    /// `[P']` is a reordering of an elimination of `[P]` (§4, Lemma 5).
    EliminationThenReordering,
    /// `[P'] = [P]` (trace-preserving transformation, §2.1).
    Identity,
}

impl fmt::Display for SemanticClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SemanticClass::Elimination => "semantic elimination",
            SemanticClass::EliminationThenReordering => "reordering of an elimination",
            SemanticClass::Identity => "traceset identity",
        };
        f.write_str(s)
    }
}

/// Extracts `[P]`, reporting `None` when truncated.
fn traceset_of(p: &Program, opts: &Analysis) -> Option<Traceset> {
    let e = extract_traceset(p, &opts.domain, &opts.extract);
    (!e.truncated).then_some(e.traceset)
}

/// Extracts `[transformed]` and `[original]`, on two workers when the
/// configuration allows it.
pub(crate) fn traceset_pair(
    transformed: &Program,
    original: &Program,
    opts: &Analysis,
) -> Option<(Traceset, Traceset)> {
    let mut pair = transafety_interleaving::par::parallel_map(
        opts.jobs.min(2),
        &[transformed, original],
        |p| traceset_of(p, opts),
    );
    let o = pair.pop().expect("two inputs")?;
    let t = pair.pop().expect("two inputs")?;
    Some((t, o))
}

/// Checks Lemma 4 for a concrete pair: `[transformed]` is a semantic
/// elimination of `[original]`.
#[must_use]
pub fn check_elimination_correspondence(
    transformed: &Program,
    original: &Program,
    opts: &Analysis,
) -> Correspondence {
    let Some((t, o)) = traceset_pair(transformed, original, opts) else {
        return Correspondence::Inconclusive;
    };
    match elimination_witnesses(&t, &o, opts) {
        Ok(_) => Correspondence::Verified {
            class: SemanticClass::Elimination,
        },
        Err(trace) => Correspondence::Failed { trace },
    }
}

/// An elimination witness for every trace of `t` against `o` (Lemma 4
/// holds for the pair), or the first trace without one.
pub(crate) fn elimination_witnesses(
    t: &Traceset,
    o: &Traceset,
    opts: &Analysis,
) -> Result<Vec<EliminationWitness>, Trace> {
    t.traces()
        .map(|trace| find_elimination(&trace, o, &opts.domain, &opts.elimination).ok_or(trace))
        .collect()
}

/// Checks Lemma 5 for a concrete pair: `[transformed]` is a reordering
/// of an elimination of `[original]`.
#[must_use]
pub fn check_reordering_correspondence(
    transformed: &Program,
    original: &Program,
    opts: &Analysis,
) -> Correspondence {
    let Some((t, o)) = traceset_pair(transformed, original, opts) else {
        return Correspondence::Inconclusive;
    };
    match is_elim_reordering_of(&t, &o, &opts.domain, &opts.elimination) {
        Ok(()) => Correspondence::Verified {
            class: SemanticClass::EliminationThenReordering,
        },
        Err(e) => Correspondence::Failed { trace: e.trace },
    }
}

/// Checks that a trace-preserving rewrite leaves the traceset unchanged.
#[must_use]
pub fn check_identity_correspondence(
    transformed: &Program,
    original: &Program,
    opts: &Analysis,
) -> Correspondence {
    let Some((t, o)) = traceset_pair(transformed, original, opts) else {
        return Correspondence::Inconclusive;
    };
    if t == o {
        Correspondence::Verified {
            class: SemanticClass::Identity,
        }
    } else {
        // report some trace present in one and not the other
        let witness = t
            .traces()
            .find(|tr| !o.contains(tr))
            .or_else(|| o.traces().find(|tr| !t.contains(tr)))
            .unwrap_or_default();
        Correspondence::Failed { trace: witness }
    }
}

/// Checks a [`Rewrite`] produced by the syntactic engine against the
/// semantic class its rule family promises (the per-instance executable
/// content of Lemmas 4 and 5).
#[must_use]
pub fn check_rewrite(original: &Program, rewrite: &Rewrite, opts: &Analysis) -> Correspondence {
    match classify(rewrite.rule) {
        SemanticClass::Elimination => {
            check_elimination_correspondence(&rewrite.result, original, opts)
        }
        SemanticClass::EliminationThenReordering => {
            check_reordering_correspondence(&rewrite.result, original, opts)
        }
        SemanticClass::Identity => check_identity_correspondence(&rewrite.result, original, opts),
    }
}

/// The semantic class promised by a syntactic rule (Lemma 4 for Fig. 10,
/// Lemma 5 for Fig. 11, §2.1 for trace-preserving moves).
#[must_use]
pub fn classify(rule: RuleName) -> SemanticClass {
    if rule.is_elimination() {
        SemanticClass::Elimination
    } else if rule.is_reordering() {
        SemanticClass::EliminationThenReordering
    } else {
        SemanticClass::Identity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_lang::parse_program;
    use transafety_syntactic::{all_rewrites, elimination_rewrites, reordering_rewrites};
    use transafety_traces::Domain;

    fn p(src: &str) -> Program {
        parse_program(src).unwrap().program
    }

    fn opts() -> Analysis {
        Analysis::with_domain(Domain::zero_to(1))
    }

    #[test]
    fn lemma4_on_fig1_thread() {
        let original = p("r1 := y; print r1; r1 := x; r2 := x; print r2;");
        for rw in elimination_rewrites(&original) {
            let c = check_rewrite(&original, &rw, &opts());
            assert!(
                matches!(c, Correspondence::Verified { .. }),
                "Lemma 4 failed for {rw}: {c:?}"
            );
        }
    }

    #[test]
    fn lemma5_on_fig2_thread() {
        let original = p("r1 := y; x := r0; print r1;");
        let rws = reordering_rewrites(&original);
        assert!(!rws.is_empty());
        for rw in rws {
            let c = check_rewrite(&original, &rw, &opts());
            assert!(
                matches!(c, Correspondence::Verified { .. }),
                "Lemma 5 failed for {rw}: {c:?}"
            );
        }
    }

    #[test]
    fn identity_rules_preserve_tracesets() {
        let original = p("r1 := y; x := 1; print r1;");
        for rw in all_rewrites(&original) {
            if rw.rule.is_trace_preserving() {
                let c = check_rewrite(&original, &rw, &opts());
                assert_eq!(
                    c,
                    Correspondence::Verified {
                        class: SemanticClass::Identity
                    }
                );
            }
        }
    }

    #[test]
    fn bogus_pairs_fail() {
        let original = p("print 1;");
        let bogus = p("print 2;");
        let c = check_elimination_correspondence(&bogus, &original, &opts());
        assert!(matches!(c, Correspondence::Failed { .. }));
    }

    #[test]
    fn roach_motel_rewrites_verify() {
        let original = p("x := r0; lock m; r1 := x; unlock m; r2 := y;");
        let rws = reordering_rewrites(&original);
        assert!(rws.iter().any(|r| r.rule == RuleName::RWl));
        assert!(rws.iter().any(|r| r.rule == RuleName::RUr));
        for rw in rws {
            let c = check_rewrite(&original, &rw, &opts());
            assert!(
                matches!(c, Correspondence::Verified { .. }),
                "roach motel {rw}: {c:?}"
            );
        }
    }
}
