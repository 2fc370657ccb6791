//! An operational TSO machine (per-thread FIFO store buffers) for the
//! §6 language.
//!
//! §8 of the paper observes that the Sun TSO memory model (used by most
//! SPARC processors, and equivalent to x86-TSO) is *explained* by the
//! paper's transformations: every TSO behaviour of a program is a
//! sequentially consistent behaviour of a program obtained by
//! write→read reordering plus forwarding elimination. This module
//! provides the machine side of that claim: the memory layer of a TSO
//! machine, explored by the generic
//! [`ModelExplorer`](transafety_lang::ModelExplorer).
//!
//! The machine model is the standard operational presentation
//! (x86-TSO): writes enqueue into the writing thread's FIFO buffer;
//! buffers drain into shared memory nondeterministically; reads consult
//! the own buffer first (store-to-load forwarding); locks, unlocks and
//! volatile accesses act as fences (they require the thread's buffer to
//! have drained).

use std::collections::{BTreeMap, VecDeque};

use transafety_lang::{
    CfgId, MachineMove, MemoryModel, MoveLabel, Program, ProgramExplorer, ThreadMove, NOT_STARTED,
};
use transafety_traces::{Action, Loc, MemoryModelKind, Monitor, Value};

/// A TSO machine state: per-thread configuration ids (of the program's
/// configuration table), per-thread FIFO store buffers, shared memory,
/// and the monitor holder table.
///
/// Public only as the opaque
/// [`MemoryModel::State`](transafety_lang::MemoryModel) of the
/// [`TsoModel`] backend; its contents are an internal encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TsoState {
    threads: Vec<CfgId>,
    buffers: Vec<VecDeque<(Loc, Value)>>,
    memory: BTreeMap<Loc, Value>,
    holders: BTreeMap<Monitor, usize>,
}

/// The TSO machine (per-thread FIFO store buffers, store-to-load
/// forwarding, fencing volatiles/locks) as a [`MemoryModel`] backend.
///
/// # Example
///
/// Run the store-buffering litmus test through the generic engine:
///
/// ```
/// use transafety_lang::{parse_program, ExploreOptions, ModelExplorer, ProgramExplorer};
/// use transafety_traces::Value;
/// use transafety_tso::TsoModel;
///
/// let src = "x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;";
/// let p = parse_program(src)?.program;
/// let opts = ExploreOptions::default();
/// let sc = ProgramExplorer::new(&p).behaviours(&opts).value;
/// let model = TsoModel::new(&p);
/// let tso = ModelExplorer::new(&model).behaviours(&opts).value;
/// let zero_zero = vec![Value::new(0), Value::new(0)];
/// assert!(!sc.contains(&zero_zero));
/// assert!(tso.contains(&zero_zero));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TsoModel<'p> {
    /// The program's SC explorer: its configuration table holds every
    /// thread configuration the machine stores.
    explorer: ProgramExplorer<'p>,
}

impl<'p> TsoModel<'p> {
    /// Creates the TSO backend for the program.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        TsoModel {
            explorer: ProgramExplorer::new(program),
        }
    }
}

impl MemoryModel for TsoModel<'_> {
    type State = TsoState;

    fn kind(&self) -> MemoryModelKind {
        MemoryModelKind::Tso
    }

    fn explorer(&self) -> &ProgramExplorer<'_> {
        &self.explorer
    }

    fn initial(&self) -> TsoState {
        let threads = self.explorer.program().thread_count();
        TsoState {
            threads: vec![NOT_STARTED; threads],
            buffers: vec![VecDeque::new(); threads],
            memory: BTreeMap::new(),
            holders: BTreeMap::new(),
        }
    }

    fn cfg(&self, state: &TsoState, k: usize) -> CfgId {
        state.threads[k]
    }

    fn read_value(&self, state: &TsoState, k: usize, loc: Loc) -> Value {
        forwarded(state.buffers[k].iter(), loc)
            .unwrap_or_else(|| state.memory.get(&loc).copied().unwrap_or(Value::ZERO))
    }

    fn holder(&self, state: &TsoState, m: Monitor) -> Option<usize> {
        state.holders.get(&m).copied()
    }

    fn has_buffered(&self, state: &TsoState, k: usize, loc: Loc) -> bool {
        state.buffers[k].iter().any(|(l, _)| *l == loc)
    }

    fn drained(&self, state: &TsoState, k: usize) -> bool {
        state.buffers[k].is_empty()
    }

    /// The oldest store of every non-empty buffer.
    fn flushes(&self, state: &TsoState) -> Vec<MachineMove> {
        state
            .buffers
            .iter()
            .enumerate()
            .filter_map(|(k, buffer)| {
                buffer
                    .front()
                    .map(|&(loc, _)| MachineMove::Flush { thread: k, loc })
            })
            .collect()
    }

    fn flush_label(&self, _loc: Loc) -> MoveLabel {
        MoveLabel::Flush(None)
    }

    fn apply(&self, state: &TsoState, mv: &MachineMove) -> TsoState {
        let mut next = state.clone();
        match mv {
            MachineMove::Flush { thread, .. } => {
                if let Some((loc, v)) = next.buffers[*thread].pop_front() {
                    next.memory.insert(loc, v);
                }
            }
            MachineMove::Act(act) => {
                if let Action::Write { loc, value } = act.action {
                    if !loc.is_volatile() {
                        next.buffers[act.thread].push_back((loc, value));
                    }
                }
                apply_act(&mut next.threads, &mut next.memory, &mut next.holders, act);
            }
        }
        next
    }
}

/// The youngest store to `loc` among a thread's buffered stores,
/// oldest first: the value store-to-load forwarding reads.
pub(crate) fn forwarded<'a>(
    buffer: impl DoubleEndedIterator<Item = &'a (Loc, Value)>,
    loc: Loc,
) -> Option<Value> {
    buffer.rev().find(|(l, _)| *l == loc).map(|&(_, v)| v)
}

/// Applies the parts of an act move the TSO and PSO machines share to
/// a state's threads, memory and holder table: volatile writes reach
/// memory at once, locks and releasing unlocks update the holder table,
/// and the thread becomes its successor. Non-volatile writes are the
/// machine's own business (they enter its store buffer).
pub(crate) fn apply_act(
    threads: &mut [CfgId],
    memory: &mut BTreeMap<Loc, Value>,
    holders: &mut BTreeMap<Monitor, usize>,
    mv: &ThreadMove,
) {
    match mv.action {
        Action::Write { loc, value } if loc.is_volatile() => {
            memory.insert(loc, value);
        }
        Action::Lock(m) => {
            holders.insert(m, mv.thread);
        }
        Action::Unlock(m) if mv.releases => {
            holders.remove(&m);
        }
        _ => {}
    }
    threads[mv.thread] = mv.next_cfg;
}

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_interleaving::Behaviours;
    use transafety_lang::{parse_program, ExploreOptions, ModelExplorer, ProgramExplorer};

    fn v(n: u32) -> Value {
        Value::new(n)
    }

    fn tso_behaviours(src: &str) -> Behaviours {
        let p = parse_program(src).unwrap().program;
        let model = TsoModel::new(&p);
        let b = ModelExplorer::new(&model).behaviours(&ExploreOptions::default());
        assert!(b.complete, "TSO exploration truncated");
        b.value
    }

    fn sc_behaviours(src: &str) -> Behaviours {
        let p = parse_program(src).unwrap().program;
        let b = ProgramExplorer::new(&p).behaviours(&ExploreOptions::default());
        assert!(b.complete);
        b.value
    }

    #[test]
    fn sb_allows_zero_zero_under_tso_only() {
        let src = "x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;";
        let zz = vec![v(0), v(0)];
        assert!(!sc_behaviours(src).contains(&zz));
        assert!(tso_behaviours(src).contains(&zz));
        // TSO is a superset of SC
        let sc = sc_behaviours(src);
        let tso = tso_behaviours(src);
        assert!(sc.is_subset(&tso));
    }

    #[test]
    fn store_to_load_forwarding() {
        // A thread always sees its own buffered store.
        let src = "x := 1; r1 := x; print r1;";
        let tso = tso_behaviours(src);
        assert!(tso.contains(&vec![v(1)]));
        assert!(!tso.contains(&vec![v(0)]));
    }

    #[test]
    fn message_passing_violated_without_fences() {
        // MP: T0: x:=1; flag:=1 — T1: r1:=flag; r2:=x; print r1; print r2.
        // TSO preserves store order, so flag=1 implies x=1 (no 1,0).
        let src = "x := 1; flag := 1; || r1 := flag; r2 := x; print r1; print r2;";
        let tso = tso_behaviours(src);
        assert!(tso.contains(&vec![v(1), v(1)]));
        assert!(!tso.contains(&vec![v(1), v(0)]), "TSO keeps store order");
    }

    #[test]
    fn volatile_writes_fence_sb() {
        // SB with volatile locations: the relaxed outcome disappears.
        let src = "volatile x, y; x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;";
        let tso = tso_behaviours(src);
        assert!(
            !tso.contains(&vec![v(0), v(0)]),
            "volatiles are fenced on TSO"
        );
        assert_eq!(tso, sc_behaviours(src), "fenced program: TSO = SC");
    }

    #[test]
    fn locks_fence_and_exclude() {
        let src = "lock m; x := 1; r1 := x; unlock m; print r1; \
                   || lock m; x := 2; r2 := x; unlock m; print r2;";
        let tso = tso_behaviours(src);
        let sc = sc_behaviours(src);
        assert_eq!(tso, sc, "lock-protected program: TSO = SC");
        assert!(!tso.contains(&vec![v(2), v(1)]) || tso.contains(&vec![v(1), v(2)]));
    }

    #[test]
    fn iriw_is_sc_on_tso() {
        // Independent reads of independent writes: TSO (unlike weaker
        // models) forbids the non-SC outcome 1,0,1,0.
        let src = "x := 1; || y := 1; \
                   || r1 := x; r2 := y; print r1; print r2; \
                   || r3 := y; r4 := x; print r3; print r4;";
        let tso = tso_behaviours(src);
        let sc = sc_behaviours(src);
        assert_eq!(tso, sc, "IRIW: TSO admits exactly the SC behaviours");
    }

    #[test]
    fn state_count_positive() {
        let p = parse_program("x := 1; || r1 := x;").unwrap().program;
        let model = TsoModel::new(&p);
        assert!(ModelExplorer::new(&model).count_reachable_states(&ExploreOptions::default()) > 3);
    }
}

/// The reduction of the generic engine on the buffered machines.
#[cfg(test)]
mod reduction_tests {
    use crate::{PsoModel, TsoModel};
    use transafety_lang::{parse_program, ExploreOptions, ModelExplorer};
    use transafety_traces::Value;

    fn v(n: u32) -> Value {
        Value::new(n)
    }

    #[test]
    fn behaviours_reduction_agrees_with_full_expansion() {
        for src in [
            "x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;",
            "x := 1; flag := 1; || r1 := flag; r2 := x; print r1; print r2;",
            "lock m; x := 1; r1 := x; unlock m; print r1; \
             || lock m; x := 2; r2 := x; unlock m; print r2;",
            "a := 1; a := 2; r0 := a; x := r0; || r1 := x; b := r1; print r1;",
            "volatile f; x := 1; f := 1; || r1 := f; if (r1 == 1) { r2 := x; print r2; }",
        ] {
            let p = parse_program(src).unwrap().program;
            let on = ExploreOptions::default();
            let off = ExploreOptions {
                por: false,
                ..ExploreOptions::default()
            };
            let tso_model = TsoModel::new(&p);
            let tso = ModelExplorer::new(&tso_model);
            assert_eq!(tso.behaviours(&on), tso.behaviours(&off), "tso {src}");
            let pso_model = PsoModel::new(&p);
            let pso = ModelExplorer::new(&pso_model);
            assert_eq!(pso.behaviours(&on), pso.behaviours(&off), "pso {src}");
        }
    }

    #[test]
    fn behaviours_reduction_is_sound_on_loopy_programs() {
        // Spin loops keep buffered machines fuel-bounded; the ast-size
        // proviso must keep the reduced truncated behaviour set equal
        // to the unreduced one at the same fuel.
        let src = "x := 1; flag := 1; || while (flag != 1) { r9 := r9; } r2 := x; print r2;";
        let p = parse_program(src).unwrap().program;
        for max_actions in [4, 6, 8] {
            let on = ExploreOptions {
                max_actions,
                ..ExploreOptions::default()
            };
            let off = ExploreOptions {
                por: false,
                max_actions,
                ..ExploreOptions::default()
            };
            let tso_model = TsoModel::new(&p);
            let tso = ModelExplorer::new(&tso_model);
            assert_eq!(
                tso.behaviours(&on),
                tso.behaviours(&off),
                "tso @{max_actions}"
            );
            let pso_model = PsoModel::new(&p);
            let pso = ModelExplorer::new(&pso_model);
            assert_eq!(
                pso.behaviours(&on),
                pso.behaviours(&off),
                "pso @{max_actions}"
            );
        }
    }

    #[test]
    fn race_phase_ignores_por_flag_on_buffered_models() {
        // The race goal always gets the full expansion, so the witness
        // is identical with and without POR.
        let src = "x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;";
        let p = parse_program(src).unwrap().program;
        let on = ExploreOptions::default();
        let off = ExploreOptions {
            por: false,
            ..ExploreOptions::default()
        };
        let model = TsoModel::new(&p);
        let ex = ModelExplorer::new(&model);
        assert_eq!(ex.race_witness(&on), ex.race_witness(&off));
        assert!(ex.race_witness(&on).is_some(), "SB races under TSO");
    }

    #[test]
    fn tso_race_witness_schedule_shows_flushes() {
        // SB races on both locations; the TSO witness must interleave
        // buffered writes and flushes consistently with its actions.
        let src = "x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;";
        let p = parse_program(src).unwrap().program;
        let model = TsoModel::new(&p);
        let w = ModelExplorer::new(&model)
            .race_witness(&ExploreOptions::default())
            .expect("SB races under TSO");
        let actions = w.schedule.iter().filter(|s| !s.label.is_flush()).count();
        assert_eq!(
            actions,
            w.witness.execution.events().len(),
            "schedule actions mirror the witness events"
        );
    }

    #[test]
    fn drf_program_has_no_tso_race() {
        let src = "lock m; x := 1; unlock m; || lock m; r1 := x; unlock m; print r1;";
        let p = parse_program(src).unwrap().program;
        let model = TsoModel::new(&p);
        assert!(ModelExplorer::new(&model)
            .race_witness(&ExploreOptions::default())
            .is_none());
    }

    #[test]
    fn census_terminates_on_loopy_program_via_search_fuel() {
        // A spin loop makes TSO buffers unbounded in principle; the
        // fuel-layered census must still terminate.
        let src = "x := 1; flag := 1; || while (flag != 1) { r9 := r9; } r2 := x; print r2;";
        let p = parse_program(src).unwrap().program;
        let opts = ExploreOptions {
            max_actions: 6,
            ..ExploreOptions::default()
        };
        let model = TsoModel::new(&p);
        let n = ModelExplorer::new(&model).count_reachable_states(&opts);
        assert!(n > 0);
    }

    #[test]
    fn pso_divergence_from_tso_through_trait_engine() {
        let src = "x := 1; flag := 1; || r1 := flag; r2 := x; print r1; print r2;";
        let p = parse_program(src).unwrap().program;
        let opts = ExploreOptions::default();
        let stale = vec![v(1), v(0)];
        let tso_model = TsoModel::new(&p);
        let pso_model = PsoModel::new(&p);
        let tso = ModelExplorer::new(&tso_model).behaviours(&opts).value;
        let pso = ModelExplorer::new(&pso_model).behaviours(&opts).value;
        assert!(!tso.contains(&stale), "TSO keeps store order");
        assert!(pso.contains(&stale), "PSO reorders the two stores");
    }
}
