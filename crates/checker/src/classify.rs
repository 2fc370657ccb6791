//! One-shot classification of a program transformation into the paper's
//! safe classes — the entry point a compiler test-suite would embed.

use std::fmt;

use transafety_lang::Program;
use transafety_traces::{MemoryModelKind, Trace};
use transafety_transform::{is_elim_reordering_of, EliminationKind, EliminationWitness};

use crate::correspondence::{elimination_witnesses, traceset_pair};
use crate::guarantee::{sc_refinement, Refinement};
use crate::Analysis;

/// The verdict of [`classify_transformation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformationClass {
    /// `[P'] = [P]` — a trace-preserving transformation (§2.1); safe for
    /// every program.
    Identity,
    /// `[P']` is a semantic elimination of `[P]` (§4) — covered by
    /// Theorems 1/3.
    Elimination,
    /// `[P']` is a reordering of an elimination of `[P]` (§4, Lemma 5) —
    /// covered by Theorems 2/4.
    EliminationThenReordering,
    /// Outside the paper's safe classes, but behaviour-refining for this
    /// particular program (an SC-preserving compiler would accept it;
    /// the DRF contract gives it no blanket licence).
    ScRefiningOnly,
    /// Outside every class: it changes this program's SC behaviours.
    /// The offending trace (if the semantic searches produced one) and
    /// behaviour help debugging.
    Unsafe {
        /// A transformed-traceset member with no semantic witness.
        witness_trace: Option<Trace>,
    },
    /// Bounds were hit before a verdict.
    Inconclusive,
}

impl TransformationClass {
    /// Is the transformation in one of the paper's always-safe classes?
    #[must_use]
    pub fn is_paper_safe(&self) -> bool {
        matches!(
            self,
            TransformationClass::Identity
                | TransformationClass::Elimination
                | TransformationClass::EliminationThenReordering
        )
    }
}

impl fmt::Display for TransformationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformationClass::Identity => f.write_str("trace-preserving (identity)"),
            TransformationClass::Elimination => f.write_str("semantic elimination"),
            TransformationClass::EliminationThenReordering => {
                f.write_str("reordering of an elimination")
            }
            TransformationClass::ScRefiningOnly => {
                f.write_str("outside the safe classes (SC-refining for this program only)")
            }
            TransformationClass::Unsafe { .. } => f.write_str("UNSAFE (changes SC behaviours)"),
            TransformationClass::Inconclusive => f.write_str("inconclusive"),
        }
    }
}

/// Classifies the transformation `original ⇒ transformed` into the
/// strongest class that holds: identity, elimination, elimination-then-
/// reordering, SC-refining-only, or unsafe.
///
/// # Example
///
/// ```
/// use transafety_checker::{classify_transformation, Analysis, TransformationClass};
/// use transafety_lang::{parse_program, parse_program_with_symbols};
///
/// let original = parse_program("r1 := x; r2 := x; print r2;")?;
/// let transformed = parse_program_with_symbols(
///     "r1 := x; r2 := r1; print r2;", original.symbols.clone())?;
/// let class = classify_transformation(
///     &transformed.program, &original.program, &Analysis::default());
/// assert_eq!(class, TransformationClass::Elimination);
/// assert!(class.is_paper_safe());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn classify_transformation(
    transformed: &Program,
    original: &Program,
    opts: &Analysis,
) -> TransformationClass {
    classify_with_witnesses(transformed, original, opts).0
}

/// [`classify_transformation`] on one extraction of the pair, with the
/// elimination witnesses (one per transformed trace) when the class is
/// [`Elimination`](TransformationClass::Elimination).
fn classify_with_witnesses(
    transformed: &Program,
    original: &Program,
    opts: &Analysis,
) -> (TransformationClass, Vec<EliminationWitness>) {
    let Some((t, o)) = traceset_pair(transformed, original, opts) else {
        return (TransformationClass::Inconclusive, Vec::new());
    };
    if t == o {
        return (TransformationClass::Identity, Vec::new());
    }
    if let Ok(witnesses) = elimination_witnesses(&t, &o, opts) {
        return (TransformationClass::Elimination, witnesses);
    }
    let class = match is_elim_reordering_of(&t, &o, &opts.domain, &opts.elimination) {
        Ok(()) => TransformationClass::EliminationThenReordering,
        Err(e) => match sc_refinement(transformed, original, opts) {
            Refinement::Refines => TransformationClass::ScRefiningOnly,
            Refinement::NewBehaviour(_) => TransformationClass::Unsafe {
                witness_trace: Some(e.trace),
            },
            Refinement::Inconclusive => TransformationClass::Inconclusive,
        },
    };
    (class, Vec::new())
}

/// The model-safety refinement of a [`TransformationClass`] verdict:
/// whether the safety proof behind the SC classification extends to the
/// memory model the analysis is configured for.
///
/// The paper's theorems are stated against SC semantics; §8 shows which
/// transformations stay valid on the buffered machines (TSO/PSO) by
/// exhibiting them inside the model's own transformation fragment. A
/// transformation can therefore be *paper-safe* under SC yet *flagged*
/// under TSO — e.g. an overwritten-write elimination, whose §8 coverage
/// argument does not go through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelClassification {
    /// The SC classification (unchanged from
    /// [`classify_transformation`]).
    pub class: TransformationClass,
    /// The model the safety question was asked for.
    pub model: MemoryModelKind,
    /// Does the safety argument extend to `model`? Always equals
    /// [`is_paper_safe`](TransformationClass::is_paper_safe) when
    /// `model` is SC; under TSO/PSO it can be `false` for a paper-safe
    /// class.
    pub safe_under_model: bool,
    /// Elimination kinds used by the witness whose proofs do not extend
    /// to `model` (each listed kind justified some eliminated position
    /// that no model-covered kind also justified). Empty when
    /// `safe_under_model`, and for non-elimination flags (a reordering
    /// class under a relaxed model is flagged as a whole).
    pub flagged_kinds: Vec<EliminationKind>,
}

impl fmt::Display for ModelClassification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} — ", self.class)?;
        if self.safe_under_model {
            write!(f, "safe under {}", self.model)
        } else {
            write!(f, "FLAGGED under {}", self.model)?;
            for (n, k) in self.flagged_kinds.iter().enumerate() {
                f.write_str(if n == 0 { ": " } else { ", " })?;
                write!(f, "{k}")?;
            }
            Ok(())
        }
    }
}

/// [`classify_transformation`], refined by the memory model in
/// `opts.model`: classifies under SC first, then decides whether the
/// safety proof carries over to the configured model.
///
/// * Identity (trace-preserving) transformations are safe under every
///   model — they are in every §8 fragment by construction.
/// * Eliminations reuse the classification's witnesses, one per
///   transformed trace, and each eliminated position must be justified
///   by a kind whose proof extends to the model
///   ([`EliminationKind::safe_under`]); otherwise the uncovered kinds
///   are reported in
///   [`flagged_kinds`](ModelClassification::flagged_kinds).
/// * Elimination-then-reordering is conservatively flagged under
///   TSO/PSO: the semantic reordering search does not recover *which*
///   reordering was used, so no per-rule subsumption argument
///   (`RuleName::subsumed_under`) can be made.
/// * Classes outside the paper's safe set are never model-safe.
///
/// # Example
///
/// ```
/// use transafety_checker::{classify_transformation_under, Analysis, TransformationClass};
/// use transafety_lang::{parse_program, parse_program_with_symbols};
/// use transafety_traces::MemoryModelKind;
///
/// let original = parse_program("x := 2; x := 1; print 1;")?;
/// let transformed = parse_program_with_symbols(
///     "x := 1; print 1;", original.symbols.clone())?;
/// let under_tso = classify_transformation_under(
///     &transformed.program,
///     &original.program,
///     &Analysis::default().model(MemoryModelKind::Tso),
/// );
/// // Safe under SC (overwritten-write elimination, Theorem 1) …
/// assert_eq!(under_tso.class, TransformationClass::Elimination);
/// assert!(under_tso.class.is_paper_safe());
/// // … but the §8 TSO coverage argument does not include it.
/// assert!(!under_tso.safe_under_model);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn classify_transformation_under(
    transformed: &Program,
    original: &Program,
    opts: &Analysis,
) -> ModelClassification {
    let (class, witnesses) = classify_with_witnesses(transformed, original, opts);
    let (safe_under_model, flagged_kinds) = match (&class, opts.model) {
        // Under SC the classification *is* the safety verdict.
        (c, MemoryModelKind::Sc) => (c.is_paper_safe(), Vec::new()),
        (TransformationClass::Identity, _) => (true, Vec::new()),
        (TransformationClass::Elimination, model) => elimination_kinds_uncovered(&witnesses, model),
        (TransformationClass::EliminationThenReordering, _) => (false, Vec::new()),
        _ => (false, Vec::new()),
    };
    ModelClassification {
        class,
        model: opts.model,
        safe_under_model,
        flagged_kinds,
    }
}

/// Collects the kinds of the classification's eliminated positions not
/// covered by any model-safe kind. Returns `(all positions covered,
/// uncovered kinds)`.
fn elimination_kinds_uncovered(
    witnesses: &[EliminationWitness],
    model: MemoryModelKind,
) -> (bool, Vec<EliminationKind>) {
    let mut flagged: Vec<EliminationKind> = Vec::new();
    let mut covered = true;
    for (_, kinds) in witnesses.iter().flat_map(|w| &w.eliminated) {
        if kinds.iter().any(|k| k.safe_under(model)) {
            continue;
        }
        covered = false;
        for k in kinds {
            if !flagged.contains(k) {
                flagged.push(*k);
            }
        }
    }
    (covered, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_lang::{parse_program, parse_program_with_symbols};
    use transafety_traces::Domain;

    fn pair(o: &str, t: &str) -> (Program, Program) {
        let original = parse_program(o).unwrap();
        let transformed = parse_program_with_symbols(t, original.symbols.clone()).unwrap();
        (original.program, transformed.program)
    }

    fn opts() -> Analysis {
        Analysis::with_domain(Domain::zero_to(1))
    }

    #[test]
    fn identity_class() {
        // swapping a register move across an unrelated load is
        // trace-preserving
        let (o, t) = pair("r1 := 1; r2 := x; print r2;", "r2 := x; r1 := 1; print r2;");
        assert_eq!(
            classify_transformation(&t, &o, &opts()),
            TransformationClass::Identity
        );
    }

    #[test]
    fn elimination_class() {
        let (o, t) = pair(
            "r1 := x; r2 := x; print r2;",
            "r1 := x; r2 := r1; print r2;",
        );
        assert_eq!(
            classify_transformation(&t, &o, &opts()),
            TransformationClass::Elimination
        );
    }

    #[test]
    fn reordering_class() {
        let (o, t) = pair("r1 := y; x := r0; print r1;", "x := r0; r1 := y; print r1;");
        assert_eq!(
            classify_transformation(&t, &o, &opts()),
            TransformationClass::EliminationThenReordering
        );
    }

    #[test]
    fn read_introduction_is_sc_refining_only() {
        // Fig. 3's (a) → (b): invisible under SC, outside the classes.
        let (o, t) = pair(
            "lock m; x := 1; print y; unlock m; || lock m; y := 1; print x; unlock m;",
            "r1 := y; lock m; x := 1; print y; unlock m; \
             || r2 := x; lock m; y := 1; print x; unlock m;",
        );
        let c = classify_transformation(&t, &o, &opts());
        assert_eq!(c, TransformationClass::ScRefiningOnly);
        assert!(!c.is_paper_safe());
    }

    #[test]
    fn behaviour_changing_is_unsafe() {
        let (o, t) = pair("print 1;", "print 2;");
        let c = classify_transformation(&t, &o, &opts());
        assert!(matches!(c, TransformationClass::Unsafe { .. }));
        assert!(c.to_string().contains("UNSAFE"));
    }

    #[test]
    fn overwritten_write_is_sc_safe_but_flagged_under_tso() {
        // x:=2; x:=1 → x:=1 — a kind-5 elimination, covered by
        // Theorem 1 under SC but outside the §8 TSO fragment.
        let (o, t) = pair("x := 2; x := 1; print 1;", "x := 1; print 1;");
        let sc = classify_transformation_under(&t, &o, &opts());
        assert_eq!(sc.class, TransformationClass::Elimination);
        assert!(sc.safe_under_model);
        assert!(sc.flagged_kinds.is_empty());
        for model in [MemoryModelKind::Tso, MemoryModelKind::Pso] {
            let c = classify_transformation_under(&t, &o, &opts().model(model));
            assert_eq!(c.class, TransformationClass::Elimination);
            assert!(c.class.is_paper_safe(), "safe under SC …");
            assert!(!c.safe_under_model, "… yet flagged under {model}");
            assert!(c.flagged_kinds.contains(&EliminationKind::OverwrittenWrite));
            assert!(c.to_string().contains("FLAGGED"));
        }
    }

    #[test]
    fn forwarding_elimination_stays_safe_under_tso() {
        // r2:=x after r1:=x — a read-after-read elimination; §8 keeps
        // read eliminations in both buffered fragments.
        let (o, t) = pair(
            "r1 := x; r2 := x; print r2;",
            "r1 := x; r2 := r1; print r2;",
        );
        for model in [MemoryModelKind::Tso, MemoryModelKind::Pso] {
            let c = classify_transformation_under(&t, &o, &opts().model(model));
            assert_eq!(c.class, TransformationClass::Elimination);
            assert!(c.safe_under_model, "read elimination covered by §8");
            assert!(c.flagged_kinds.is_empty());
            assert!(c.to_string().contains("safe under"));
        }
    }

    #[test]
    fn identity_is_safe_under_every_model() {
        let (o, t) = pair("r1 := 1; r2 := x; print r2;", "r2 := x; r1 := 1; print r2;");
        for model in transafety_traces::MemoryModelKind::ALL {
            let c = classify_transformation_under(&t, &o, &opts().model(model));
            assert_eq!(c.class, TransformationClass::Identity);
            assert!(c.safe_under_model);
        }
    }

    #[test]
    fn reordering_is_conservatively_flagged_under_relaxed_models() {
        let (o, t) = pair("r1 := y; x := r0; print r1;", "x := r0; r1 := y; print r1;");
        let c = classify_transformation_under(&t, &o, &opts().model(MemoryModelKind::Tso));
        assert_eq!(c.class, TransformationClass::EliminationThenReordering);
        assert!(!c.safe_under_model);
        assert!(c.flagged_kinds.is_empty());
    }

    #[test]
    fn unsafe_stays_unsafe_under_every_model() {
        let (o, t) = pair("print 1;", "print 2;");
        for model in transafety_traces::MemoryModelKind::ALL {
            let c = classify_transformation_under(&t, &o, &opts().model(model));
            assert!(!c.safe_under_model);
        }
    }
}
