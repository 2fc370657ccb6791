//! The DRF guarantee as a decision procedure (Theorems 1–4 instantiated
//! on concrete programs).

use std::fmt;

use transafety_interleaving::{Behaviours, RaceWitness};
use transafety_lang::{Bounded, Program, ProgramExplorer};
use transafety_traces::{MemoryModelKind, Value};

use crate::Analysis;

/// An execution of the program exhibiting exactly the given behaviour,
/// if one exists within the bounds — used to turn
/// [`Refinement::NewBehaviour`] reports into concrete schedules.
#[must_use]
pub fn execution_with_behaviour(
    program: &Program,
    behaviour: &[Value],
    opts: &Analysis,
) -> Option<transafety_interleaving::Interleaving> {
    ProgramExplorer::new(program).execution_with_behaviour(behaviour, &opts.explore)
}

/// The result of checking behaviour refinement between two programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refinement {
    /// Every behaviour of the transformed program is a behaviour of the
    /// original.
    Refines,
    /// A behaviour of the transformed program that the original cannot
    /// produce.
    NewBehaviour(Vec<Value>),
    /// A bound was hit; the comparison is inconclusive.
    Inconclusive,
}

impl fmt::Display for Refinement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refinement::Refines => f.write_str("behaviours refined"),
            Refinement::NewBehaviour(b) => {
                write!(f, "new behaviour ")?;
                write!(f, "[")?;
                for (i, v) in b.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Refinement::Inconclusive => f.write_str("inconclusive (bounds hit)"),
        }
    }
}

impl Refinement {
    /// The one refinement rule, over two bounded behaviour sets.
    /// Behaviour sets are prefix-closed and every behaviour a truncated
    /// exploration reached is real, so a transformed behaviour missing
    /// from a *complete* original set is a new behaviour whatever the
    /// transformed side's completeness. [`Refines`](Refinement::Refines)
    /// needs both sets complete.
    #[must_use]
    pub fn compare(transformed: &Bounded<Behaviours>, original: &Bounded<Behaviours>) -> Self {
        match transformed.value.difference(&original.value).next() {
            Some(extra) if original.complete => Refinement::NewBehaviour(extra.clone()),
            None if original.complete && transformed.complete => Refinement::Refines,
            _ => Refinement::Inconclusive,
        }
    }
}

/// Does `transformed` behaviour-refine `original` (every behaviour of the
/// transformed program is one of the original's) under `opts.model`?
/// This is the conclusion of Theorems 1–4 for DRF originals; each side
/// runs [`Analysis::behaviours`] and [`Refinement::compare`] decides.
#[must_use]
pub fn behaviour_refinement(
    transformed: &Program,
    original: &Program,
    opts: &Analysis,
) -> Refinement {
    Refinement::compare(
        &opts.behaviours(transformed).output,
        &opts.behaviours(original).output,
    )
}

/// The verdict of the full DRF-guarantee check for a transformation
/// instance `original ⇒ transformed` (the executable form of
/// Theorems 3/4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrfVerdict {
    /// The original program has a data race — the DRF guarantee promises
    /// nothing (the witness shows the race).
    OriginalRacy(Box<RaceWitness>),
    /// The original is DRF, the transformed program refines it, and the
    /// transformed program is DRF too — exactly what the theorems claim.
    Holds,
    /// The original is DRF but the transformed program exhibits a new
    /// behaviour — this would falsify the theorem for a safe rule (or
    /// exposes an unsafe transformation, as in Fig. 3).
    NewBehaviour(Vec<Value>),
    /// The original is DRF but the transformed program races — the
    /// transformation failed to preserve data race freedom.
    RaceIntroduced(Box<RaceWitness>),
    /// Bounds were hit; no verdict.
    Inconclusive,
}

impl DrfVerdict {
    /// Did the check confirm the theorem's claim (or establish it is
    /// vacuous because the original races)?
    #[must_use]
    pub fn is_consistent_with_paper(&self) -> bool {
        matches!(self, DrfVerdict::Holds | DrfVerdict::OriginalRacy(_))
    }
}

impl fmt::Display for DrfVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrfVerdict::OriginalRacy(w) => write!(f, "original racy: {w}"),
            DrfVerdict::Holds => f.write_str("DRF guarantee holds"),
            DrfVerdict::NewBehaviour(b) => {
                write!(f, "VIOLATION: new behaviour {:?}", b)
            }
            DrfVerdict::RaceIntroduced(w) => write!(f, "VIOLATION: race introduced: {w}"),
            DrfVerdict::Inconclusive => f.write_str("inconclusive"),
        }
    }
}

/// Checks the DRF guarantee for one transformation instance: if the
/// original is data race free then the transformed program must refine
/// its behaviours and stay data race free (Theorems 1–4). The verdict of
/// [`Analysis::guarantee`].
#[must_use]
pub fn drf_guarantee(transformed: &Program, original: &Program, opts: &Analysis) -> DrfVerdict {
    opts.guarantee(transformed, original).output
}

/// The *SC-only baseline* (`DESIGN.md` §2): a compiler that refuses any
/// transformation observably changing sequentially consistent behaviour
/// of the given program, racy or not. The paper's point (§1, §7) is that
/// this baseline must reject common optimisations that the DRF contract
/// accepts. It compares SC behaviours whatever `opts.model` says.
#[must_use]
pub fn sc_only_accepts(transformed: &Program, original: &Program, opts: &Analysis) -> bool {
    sc_refinement(transformed, original, opts) == Refinement::Refines
}

/// [`behaviour_refinement`] under SC whatever `opts.model` says: the
/// SC-only baseline and `ScRefiningOnly` are SC notions.
pub(crate) fn sc_refinement(
    transformed: &Program,
    original: &Program,
    opts: &Analysis,
) -> Refinement {
    behaviour_refinement(
        transformed,
        original,
        &opts.clone().model(MemoryModelKind::Sc),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_lang::parse_program;

    fn p(src: &str) -> Program {
        parse_program(src).unwrap().program
    }

    #[test]
    fn fig1_original_and_transformed() {
        // Fig. 1: both racy; the transformation adds behaviour (1 then 0)
        // but the DRF guarantee is vacuous because the original races.
        let original =
            p("x := 2; y := 1; x := 1; || r1 := y; print r1; r1 := x; r2 := x; print r2;");
        let transformed = p("y := 1; x := 1; || r1 := y; print r1; r1 := x; r2 := r1; print r2;");
        let opts = Analysis::default();
        let verdict = drf_guarantee(&transformed, &original, &opts);
        assert!(matches!(verdict, DrfVerdict::OriginalRacy(_)));
        assert!(verdict.is_consistent_with_paper());
        // the SC-only baseline rejects this elimination
        assert!(!sc_only_accepts(&transformed, &original, &opts));
        // and indeed the new behaviour is [1, 0]
        let bt = opts.behaviours(&transformed).output.value;
        let bo = opts.behaviours(&original).output.value;
        let one_zero = vec![Value::new(1), Value::new(0)];
        assert!(bt.contains(&one_zero) && !bo.contains(&one_zero));
    }

    #[test]
    fn drf_guarantee_holds_for_locked_elimination() {
        // A DRF program and a redundant-read elimination inside the lock.
        let original =
            p("lock m; r1 := x; r2 := x; print r2; unlock m; || lock m; x := 1; unlock m;");
        let transformed =
            p("lock m; r1 := x; r2 := r1; print r2; unlock m; || lock m; x := 1; unlock m;");
        let verdict = drf_guarantee(&transformed, &original, &Analysis::default());
        assert_eq!(verdict, DrfVerdict::Holds);
    }

    #[test]
    fn detects_behaviour_violations() {
        let original = p("print 1;");
        let bogus = p("print 2;");
        let verdict = drf_guarantee(&bogus, &original, &Analysis::default());
        assert_eq!(verdict, DrfVerdict::NewBehaviour(vec![Value::new(2)]));
        assert!(!verdict.is_consistent_with_paper());
    }

    #[test]
    fn detects_introduced_races() {
        // original: thread 1 never touches x; transformed: it reads x.
        let original = p("x := 1; || skip; print 1;");
        let transformed = p("x := 1; || r9 := x; print 1;");
        let verdict = drf_guarantee(&transformed, &original, &Analysis::default());
        assert!(matches!(verdict, DrfVerdict::RaceIntroduced(_)));
    }

    #[test]
    fn refinement_rule_over_completeness_and_subset() {
        let set = |outputs: &[u32], complete| Bounded {
            value: outputs.iter().map(|&v| vec![Value::new(v)]).collect(),
            complete,
        };
        let new = Refinement::NewBehaviour(vec![Value::new(2)]);
        // (transformed complete, original complete, transformed ⊆ original)
        for (t_complete, o_complete, subset, expected) in [
            (true, true, true, Refinement::Refines),
            (true, true, false, new.clone()),
            (false, true, true, Refinement::Inconclusive),
            (false, true, false, new),
            (true, false, true, Refinement::Inconclusive),
            (true, false, false, Refinement::Inconclusive),
            (false, false, true, Refinement::Inconclusive),
            (false, false, false, Refinement::Inconclusive),
        ] {
            let transformed = set(if subset { &[1] } else { &[1, 2] }, t_complete);
            let original = set(&[1, 3], o_complete);
            assert_eq!(
                Refinement::compare(&transformed, &original),
                expected,
                "transformed complete {t_complete}, original complete {o_complete}, \
                 subset {subset}"
            );
        }
    }

    #[test]
    fn refinement_display() {
        assert_eq!(Refinement::Refines.to_string(), "behaviours refined");
        let n = Refinement::NewBehaviour(vec![Value::new(1), Value::ZERO]);
        assert_eq!(n.to_string(), "new behaviour [1, 0]");
    }
}
