//! A PSO (partial store order) machine — the paper's §8 future-work
//! direction, executably.
//!
//! §8 closes with: *"We believe that similar results can be achieved for
//! other processor memory models."* PSO (SPARC's weaker sibling of TSO)
//! additionally relaxes write→write order: store buffers are per
//! location, so stores to different locations may drain out of order.
//! The corresponding transformation fragment adds the W→W reordering
//! rule (R-WW) to TSO's W→R + forwarding fragment;
//! [`explain`](crate::explain) over a [`PsoModel`] checks that this
//! fragment explains every PSO behaviour, supporting the paper's
//! conjecture on the corpus.

use std::collections::BTreeMap;

use transafety_lang::{CfgId, MachineMove, MemoryModel, Program, ProgramExplorer, NOT_STARTED};
use transafety_traces::{Action, Loc, MemoryModelKind, Monitor, Value};

use crate::machine::{apply_act, forwarded};

/// A PSO machine state: per-thread configuration ids (of the program's
/// configuration table), per-thread **per-location** FIFO store
/// buffers with forwarding, shared memory, and the monitor holder
/// table. Locks, unlocks and volatile accesses drain all of the
/// thread's buffers.
///
/// Public only as the opaque
/// [`MemoryModel::State`](transafety_lang::MemoryModel) of the
/// [`PsoModel`] backend; its contents are an internal encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PsoState {
    threads: Vec<CfgId>,
    /// Per thread, the buffered stores ordered by location and FIFO
    /// within a location: one queue per location, flattened.
    buffers: Vec<Vec<(Loc, Value)>>,
    memory: BTreeMap<Loc, Value>,
    holders: BTreeMap<Monitor, usize>,
}

/// The PSO machine (per-thread **per-location** FIFO store buffers) as
/// a [`MemoryModel`] backend. Flush moves carry the drained location in
/// their [`MoveLabel::Flush`](transafety_lang::MoveLabel) label, so a
/// PSO witness schedule shows which buffer drained at each step.
///
/// # Example
///
/// Message passing is broken by PSO (unlike TSO): the flag may become
/// visible before the data.
///
/// ```
/// use transafety_lang::{parse_program, ExploreOptions, ModelExplorer};
/// use transafety_tso::{PsoModel, TsoModel};
/// use transafety_traces::Value;
///
/// let src = "x := 1; flag := 1; || r1 := flag; r2 := x; print r1; print r2;";
/// let p = parse_program(src)?.program;
/// let opts = ExploreOptions::default();
/// let stale = vec![Value::new(1), Value::new(0)];
/// let tso = TsoModel::new(&p);
/// let pso = PsoModel::new(&p);
/// assert!(!ModelExplorer::new(&tso).behaviours(&opts).value.contains(&stale));
/// assert!(ModelExplorer::new(&pso).behaviours(&opts).value.contains(&stale));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PsoModel<'p> {
    /// The program's SC explorer: its configuration table holds every
    /// thread configuration the machine stores.
    explorer: ProgramExplorer<'p>,
}

impl<'p> PsoModel<'p> {
    /// Creates the PSO backend for the program.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        PsoModel {
            explorer: ProgramExplorer::new(program),
        }
    }
}

impl MemoryModel for PsoModel<'_> {
    type State = PsoState;

    fn kind(&self) -> MemoryModelKind {
        MemoryModelKind::Pso
    }

    fn explorer(&self) -> &ProgramExplorer<'_> {
        &self.explorer
    }

    fn initial(&self) -> PsoState {
        let threads = self.explorer.program().thread_count();
        PsoState {
            threads: vec![NOT_STARTED; threads],
            buffers: vec![Vec::new(); threads],
            memory: BTreeMap::new(),
            holders: BTreeMap::new(),
        }
    }

    fn cfg(&self, state: &PsoState, k: usize) -> CfgId {
        state.threads[k]
    }

    fn read_value(&self, state: &PsoState, k: usize, loc: Loc) -> Value {
        forwarded(state.buffers[k].iter(), loc)
            .unwrap_or_else(|| state.memory.get(&loc).copied().unwrap_or(Value::ZERO))
    }

    fn holder(&self, state: &PsoState, m: Monitor) -> Option<usize> {
        state.holders.get(&m).copied()
    }

    fn has_buffered(&self, state: &PsoState, k: usize, loc: Loc) -> bool {
        state.buffers[k].iter().any(|(l, _)| *l == loc)
    }

    fn drained(&self, state: &PsoState, k: usize) -> bool {
        state.buffers[k].is_empty()
    }

    /// The oldest store of every non-empty per-location buffer.
    fn flushes(&self, state: &PsoState) -> Vec<MachineMove> {
        let mut out = Vec::new();
        for (k, buffer) in state.buffers.iter().enumerate() {
            for (i, &(loc, _)) in buffer.iter().enumerate() {
                if i == 0 || buffer[i - 1].0 != loc {
                    out.push(MachineMove::Flush { thread: k, loc });
                }
            }
        }
        out
    }

    fn apply(&self, state: &PsoState, mv: &MachineMove) -> PsoState {
        let mut next = state.clone();
        match mv {
            MachineMove::Flush { thread, loc } => {
                let buffer = &mut next.buffers[*thread];
                if let Some(i) = buffer.iter().position(|(l, _)| l == loc) {
                    let (_, v) = buffer.remove(i);
                    next.memory.insert(*loc, v);
                }
            }
            MachineMove::Act(act) => {
                if let Action::Write { loc, value } = act.action {
                    if !loc.is_volatile() {
                        // Behind the youngest store to the same location.
                        let buffer = &mut next.buffers[act.thread];
                        let at = buffer.partition_point(|(l, _)| *l <= loc);
                        buffer.insert(at, (loc, value));
                    }
                }
                apply_act(&mut next.threads, &mut next.memory, &mut next.holders, act);
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explain, Explanation, PsoModel, TsoModel};
    use transafety_interleaving::{Behaviours, BudgetGuard};
    use transafety_lang::{parse_program, ExploreOptions, ModelExplorer, Program};

    fn v(n: u32) -> Value {
        Value::new(n)
    }

    fn tso_behaviours(p: &Program, opts: &ExploreOptions) -> Behaviours {
        let model = TsoModel::new(p);
        ModelExplorer::new(&model).behaviours(opts).value
    }

    fn pso_behaviours(p: &Program, opts: &ExploreOptions) -> Behaviours {
        let model = PsoModel::new(p);
        ModelExplorer::new(&model).behaviours(opts).value
    }

    fn pso_explanation(p: &Program, depth: usize, opts: &ExploreOptions) -> Explanation {
        let pso = PsoModel::new(p);
        explain(
            &ModelExplorer::new(&pso),
            depth,
            opts,
            &BudgetGuard::unlimited(),
        )
    }

    #[test]
    fn pso_includes_tso_behaviours_on_sb() {
        let p = parse_program("x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;")
            .unwrap()
            .program;
        let opts = ExploreOptions::default();
        let tso = tso_behaviours(&p, &opts);
        let pso = pso_behaviours(&p, &opts);
        assert!(tso.is_subset(&pso));
        assert!(pso.contains(&vec![v(0), v(0)]));
    }

    #[test]
    fn mp_breaks_under_pso_and_is_explained() {
        let p = parse_program("x := 1; flag := 1; || r1 := flag; r2 := x; print r1; print r2;")
            .unwrap()
            .program;
        let opts = ExploreOptions::default();
        let stale = vec![v(1), v(0)];
        assert!(!tso_behaviours(&p, &opts).contains(&stale));
        let e = pso_explanation(&p, 3, &opts);
        assert!(e.complete);
        assert!(e.relaxed, "PSO reorders the two stores");
        assert!(e.behaviours.contains(&stale));
        assert!(e.explained, "R-WW explains the stale read");
    }

    #[test]
    fn volatile_flag_repairs_mp_under_pso() {
        let p = parse_program(
            "volatile flag; x := 1; flag := 1; \
             || r1 := flag; if (r1 == 1) { r2 := x; print r2; }",
        )
        .unwrap()
        .program;
        let opts = ExploreOptions::default();
        let pso = pso_behaviours(&p, &opts);
        assert!(
            !pso.contains(&vec![v(0)]),
            "fenced flag keeps the data visible"
        );
    }

    #[test]
    fn pso_explained_on_small_corpus() {
        for src in [
            "x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;",
            "x := 2; x := 1; || r1 := x; print r1;",
            "x := 1; y := 1; || r1 := y; r2 := x; print r1; print r2;",
        ] {
            let p = parse_program(src).unwrap().program;
            let e = pso_explanation(&p, 3, &ExploreOptions::default());
            assert!(
                e.explained,
                "{src}: pso={:?} union={:?}",
                e.behaviours, e.closure_union
            );
        }
    }
}
