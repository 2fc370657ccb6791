//! A PSO (partial store order) machine — the paper's §8 future-work
//! direction, executably.
//!
//! §8 closes with: *"We believe that similar results can be achieved for
//! other processor memory models."* PSO (SPARC's weaker sibling of TSO)
//! additionally relaxes write→write order: store buffers are per
//! location, so stores to different locations may drain out of order.
//! The corresponding transformation fragment adds the W→W reordering
//! rule (R-WW) to TSO's W→R + forwarding fragment;
//! [`explain`](crate::explain) over a [`PsoModel`](crate::PsoModel) checks that this
//! fragment explains every PSO behaviour, supporting the paper's
//! conjecture on the corpus.

use std::collections::BTreeMap;

use transafety_lang::{ExploreOptions, MoveLabel};
use transafety_traces::{Action, Loc, Monitor, Value};

use crate::configs::{apply_act, BufferedMove, CfgId, ConfigTable, Machine, NOT_STARTED};

/// A PSO machine state: per-thread configuration ids (interned by the
/// [`PsoModel`](crate::PsoModel)), per-thread **per-location** FIFO
/// store buffers with forwarding, shared memory, and the monitor holder
/// table. Locks, unlocks and volatile accesses drain all of the
/// thread's buffers.
///
/// Public only as the opaque
/// [`MemoryModel::State`](transafety_lang::MemoryModel) of the
/// [`PsoModel`](crate::PsoModel) backend; its contents are an internal
/// encoding.
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PsoState {
    threads: Vec<CfgId>,
    /// Per thread, the buffered stores ordered by location and FIFO
    /// within a location: one queue per location, flattened.
    buffers: Vec<Vec<(Loc, Value)>>,
    memory: BTreeMap<Loc, Value>,
    holders: BTreeMap<Monitor, usize>,
}

impl PsoState {
    fn read_value(&self, k: usize, loc: Loc) -> Value {
        self.buffers[k]
            .iter()
            .rev()
            .find(|(l, _)| *l == loc)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| self.memory.get(&loc).copied().unwrap_or(Value::ZERO))
    }
}

impl Machine for PsoState {
    fn initial(threads: usize) -> Self {
        PsoState {
            threads: vec![NOT_STARTED; threads],
            buffers: vec![Vec::new(); threads],
            memory: BTreeMap::new(),
            holders: BTreeMap::new(),
        }
    }

    fn cfg(&self, k: usize) -> CfgId {
        self.threads[k]
    }

    fn has_buffered(&self, k: usize, loc: Loc) -> bool {
        self.buffers[k].iter().any(|(l, _)| *l == loc)
    }

    /// All enabled moves, in deterministic order: every flush of a
    /// non-empty per-location buffer, then each thread's start or act
    /// move (fences wait for all of the thread's buffers to drain).
    fn moves(
        &self,
        table: &mut ConfigTable,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Vec<BufferedMove> {
        let mut out = Vec::new();
        for (k, buffer) in self.buffers.iter().enumerate() {
            for (i, &(loc, _)) in buffer.iter().enumerate() {
                if i == 0 || buffer[i - 1].0 != loc {
                    out.push(BufferedMove::Flush { thread: k, loc });
                }
            }
        }
        for (k, &slot) in self.threads.iter().enumerate() {
            out.extend(table.thread_move(
                k,
                slot,
                opts.max_tau,
                self.buffers[k].is_empty(),
                &self.holders,
                |loc| self.read_value(k, loc),
                truncated,
            ));
        }
        out
    }

    fn apply(&self, mv: &BufferedMove) -> PsoState {
        let mut next = self.clone();
        match *mv {
            BufferedMove::Start { thread, cfg } => next.threads[thread] = cfg,
            BufferedMove::Flush { thread, loc } => {
                let buffer = &mut next.buffers[thread];
                if let Some(i) = buffer.iter().position(|(l, _)| *l == loc) {
                    let (_, v) = buffer.remove(i);
                    next.memory.insert(loc, v);
                }
            }
            BufferedMove::Act {
                thread,
                action,
                next: cfg,
                releases,
            } => {
                if let Action::Write { loc, value } = action {
                    if !loc.is_volatile() {
                        // Behind the youngest store to the same location.
                        let buffer = &mut next.buffers[thread];
                        let at = buffer.partition_point(|(l, _)| *l <= loc);
                        buffer.insert(at, (loc, value));
                    }
                }
                apply_act(
                    &mut next.threads,
                    &mut next.memory,
                    &mut next.holders,
                    thread,
                    action,
                    cfg,
                    releases,
                );
            }
        }
        next
    }

    fn flush_label(loc: Loc) -> MoveLabel {
        MoveLabel::Flush(Some(loc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explain, Explanation, PsoModel, TsoModel};
    use transafety_interleaving::{Behaviours, BudgetGuard};
    use transafety_lang::{parse_program, ModelExplorer, Program};

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
            p,
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
