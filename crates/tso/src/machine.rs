//! An operational TSO machine (per-thread FIFO store buffers) for the
//! §6 language.
//!
//! §8 of the paper observes that the Sun TSO memory model (used by most
//! SPARC processors, and equivalent to x86-TSO) is *explained* by the
//! paper's transformations: every TSO behaviour of a program is a
//! sequentially consistent behaviour of a program obtained by
//! write→read reordering plus forwarding elimination. This module
//! provides the machine side of that claim: an exhaustive explorer of
//! TSO executions.
//!
//! The machine model is the standard operational presentation
//! (x86-TSO): writes enqueue into the writing thread's FIFO buffer;
//! buffers drain into shared memory nondeterministically; reads consult
//! the own buffer first (store-to-load forwarding); locks, unlocks and
//! volatile accesses act as fences (they require the thread's buffer to
//! have drained).

use std::collections::{BTreeMap, VecDeque};

use transafety_lang::{CfgId, MoveLabel, NOT_STARTED};
use transafety_traces::{Action, Loc, Monitor, Value};

use crate::buffered::{apply_act, BufferedMove, Machine};

/// A TSO machine state: per-thread configuration ids (of the program's
/// configuration table, see [`Configs`](transafety_lang::Configs)),
/// per-thread FIFO store buffers, shared memory, and the monitor holder
/// table.
///
/// Public only as the opaque
/// [`MemoryModel::State`](transafety_lang::MemoryModel) of the
/// [`TsoModel`](crate::TsoModel) backend; its contents are an internal
/// encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TsoState {
    threads: Vec<CfgId>,
    buffers: Vec<VecDeque<(Loc, Value)>>,
    memory: BTreeMap<Loc, Value>,
    holders: BTreeMap<Monitor, usize>,
}

impl Machine for TsoState {
    fn initial(threads: usize) -> Self {
        TsoState {
            threads: vec![NOT_STARTED; threads],
            buffers: vec![VecDeque::new(); threads],
            memory: BTreeMap::new(),
            holders: BTreeMap::new(),
        }
    }

    fn threads(&self) -> &[CfgId] {
        &self.threads
    }

    fn holders(&self) -> &BTreeMap<Monitor, usize> {
        &self.holders
    }

    fn has_buffered(&self, k: usize, loc: Loc) -> bool {
        self.buffers[k].iter().any(|(l, _)| *l == loc)
    }

    fn drained(&self, k: usize) -> bool {
        self.buffers[k].is_empty()
    }

    fn read_value(&self, k: usize, loc: Loc) -> Value {
        self.buffers[k]
            .iter()
            .rev()
            .find(|(l, _)| *l == loc)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| self.memory.get(&loc).copied().unwrap_or(Value::ZERO))
    }

    /// The oldest store of every non-empty buffer.
    fn flushes(&self) -> Vec<BufferedMove> {
        self.buffers
            .iter()
            .enumerate()
            .filter_map(|(k, buffer)| {
                buffer
                    .front()
                    .map(|&(loc, _)| BufferedMove::Flush { thread: k, loc })
            })
            .collect()
    }

    fn apply(&self, mv: &BufferedMove) -> TsoState {
        let mut next = self.clone();
        match mv {
            BufferedMove::Flush { thread, .. } => {
                if let Some((loc, v)) = next.buffers[*thread].pop_front() {
                    next.memory.insert(loc, v);
                }
            }
            BufferedMove::Act(act) => {
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

    fn flush_label(_loc: Loc) -> MoveLabel {
        MoveLabel::Flush(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TsoModel;
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
