//! The §8 claim, executably: a hardware model's behaviour is explained
//! by the paper's transformations.
//!
//! §8: *"we can explain the Sun TSO memory model with our semantic
//! transformations"*. Operationally, TSO differs from SC by delaying
//! stores in FIFO buffers with store-to-load forwarding — which is
//! exactly (i) reordering a write with a later read of a different
//! location (rule R-WR) and (ii) letting a read of the same location
//! take the buffered value (the forwarding eliminations E-RAW/E-RAR);
//! PSO adds write→write reordering (R-WW, see [`crate::PsoModel`]).
//! [`explain`] checks, per program, that every behaviour under the model
//! is a sequentially consistent behaviour of *some* program in the
//! closure of exactly that model's rule fragment.

use transafety_interleaving::{Behaviours, BudgetGuard};
use transafety_lang::{ExploreOptions, MemoryModel, ModelExplorer, ProgramExplorer};
use transafety_syntactic::transform_closure_filtered;
use transafety_traces::MemoryModelKind;

/// The result of checking whether a program's behaviours under a memory
/// model are explained by that model's fragment of the paper's
/// transformations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// The model the behaviours were explored under.
    pub model: MemoryModelKind,
    /// The behaviours of the program under [`model`](Explanation::model).
    pub behaviours: Behaviours,
    /// The SC behaviours of the (untransformed) program.
    pub sc: Behaviours,
    /// The union of SC behaviours over the transformation closure.
    pub closure_union: Behaviours,
    /// How many programs the closure contained.
    pub closure_size: usize,
    /// Did the program exhibit non-SC behaviour under the model?
    pub relaxed: bool,
    /// `behaviours ⊆ closure_union` — the §8 claim for this program.
    pub explained: bool,
    /// No exploration bound was hit anywhere.
    pub complete: bool,
}

/// Checks the §8 claim on the program `mx` explores: every behaviour of
/// it under the model is an SC behaviour of some member of the closure
/// of the rules
/// [`subsumed_under`](transafety_syntactic::RuleName::subsumed_under)
/// that model (up to `depth` rewrite steps). The program's own SC
/// behaviours come from the model's
/// [`explorer`](MemoryModel::explorer), so they share its configuration
/// table. Every exploration runs under `guard`; a tripped guard leaves
/// [`complete`](Explanation::complete) false.
#[must_use]
pub fn explain<M: MemoryModel>(
    mx: &ModelExplorer<'_, M>,
    depth: usize,
    opts: &ExploreOptions,
    guard: &BudgetGuard,
) -> Explanation {
    let model = mx.model().kind();
    let explorer = mx.model().explorer();
    let model_b = mx.behaviours_governed(opts, guard);
    let sc_b = explorer.behaviours_governed(opts, guard);
    let program = explorer.program();
    let closure = transform_closure_filtered(program, depth, |rule| rule.subsumed_under(model));
    let closure_size = closure.len();
    let mut union: Behaviours = Behaviours::new();
    let mut complete = model_b.complete && sc_b.complete;
    for q in closure {
        let b = ProgramExplorer::new(&q).behaviours_governed(opts, guard);
        complete &= b.complete;
        union.extend(b.value);
    }
    let relaxed = !model_b.value.is_subset(&sc_b.value);
    let explained = model_b.value.is_subset(&union);
    Explanation {
        model,
        behaviours: model_b.value,
        sc: sc_b.value,
        closure_union: union,
        closure_size,
        relaxed,
        explained,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TsoModel;
    use transafety_lang::parse_program;
    use transafety_traces::Value;

    fn v(n: u32) -> Value {
        Value::new(n)
    }

    fn tso_explanation(src: &str, depth: usize) -> Explanation {
        let p = parse_program(src).unwrap().program;
        let tso = TsoModel::new(&p);
        let guard = BudgetGuard::unlimited();
        explain(
            &ModelExplorer::new(&tso),
            depth,
            &ExploreOptions::default(),
            &guard,
        )
    }

    #[test]
    fn sb_is_relaxed_and_explained() {
        let src = "x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;";
        let e = tso_explanation(src, 3);
        assert_eq!(e.model, MemoryModelKind::Tso);
        assert!(e.complete);
        assert!(e.relaxed, "SB exhibits the 0,0 outcome under TSO");
        assert!(e.explained, "… and W→R reordering explains it");
        assert!(e.behaviours.contains(&vec![v(0), v(0)]));
        assert!(!e.sc.contains(&vec![v(0), v(0)]));
        assert!(e.closure_union.contains(&vec![v(0), v(0)]));
    }

    #[test]
    fn mp_is_unrelaxed_and_trivially_explained() {
        let src = "x := 1; flag := 1; || r1 := flag; r2 := x; print r1; print r2;";
        let e = tso_explanation(src, 2);
        assert!(!e.relaxed, "TSO adds nothing to MP");
        assert!(e.explained);
    }

    #[test]
    fn fenced_sb_needs_no_explanation() {
        let src = "volatile x, y; x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;";
        let e = tso_explanation(src, 2);
        assert!(!e.relaxed);
        assert!(e.explained);
        assert_eq!(
            e.closure_size, 1,
            "no fragment rule applies to volatile accesses"
        );
    }

    #[test]
    fn forwarding_is_explained_by_eraw() {
        // T0: x:=1; r1:=x; r2:=y; print r1; print r2 — under TSO the read
        // of x forwards from the buffer while the read of y may see 0
        // even after another thread observed x=1. The explanation needs
        // E-RAW (forward) *then* R-WR (delay the store past r2:=y).
        let src = "x := 1; r1 := x; r2 := y; print r1; print r2; \
                   || r3 := x; y := r3;";
        let e = tso_explanation(src, 4);
        assert!(
            e.explained,
            "tso={:?} union={:?}",
            e.behaviours, e.closure_union
        );
    }
}
