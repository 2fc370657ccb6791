//! The thread-configuration table shared by the TSO and PSO machines.
//!
//! A buffered machine state holds one configuration per thread. Storing
//! each as a full [`ThreadConfig`] (registers, monitor nesting and the
//! remaining code) would deep-copy every thread's remaining program on
//! every successor, re-run the τ-closure on every visit and hash whole
//! ASTs in the state interner. The table instead maps each distinct
//! configuration the machines store to a dense `u32` id, assigned in
//! first-seen order (so ids are deterministic for a sequential run), and
//! memoises per id everything the machines ask of a configuration:
//!
//! - the τ-closure step ([`NextStep`]): done, diverged, a load, or any
//!   other action together with its successor's id;
//! - read resolution, `(id, value) → successor id`;
//! - the [`CfgMeta`] footprint of the remaining code.
//!
//! The configurations interned are exactly the ones the machines store
//! (a finished thread becomes the empty configuration; nothing is
//! τ-normalised), so id equality is configuration equality and the state
//! graph is the same graph the configurations themselves would span.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::Arc;

use transafety_interleaving::intern::StateInterner;
use transafety_lang::{CfgMeta, ExploreOptions, MoveLabel, Program, Step, ThreadConfig};
use transafety_traces::{Action, Domain, Loc, Monitor, Value};

/// The id of an interned thread configuration.
pub(crate) type CfgId = u32;

/// Sentinel id of a thread that has not started yet.
pub(crate) const NOT_STARTED: CfgId = u32::MAX;

/// What a configuration does next, once its silent steps are taken.
#[derive(Debug, Clone, Copy)]
enum NextStep {
    /// The code is exhausted.
    Done,
    /// The τ-closure did not reach an action within `max_tau` steps.
    Diverged,
    /// A load of `loc`; the successor depends on the value read (see
    /// [`ConfigTable::read`]).
    Read { loc: Loc },
    /// Any other action, with its single successor.
    Act {
        action: Action,
        next: CfgId,
        /// An unlock that drops the monitor's nesting to zero.
        releases: bool,
    },
}

/// One enabled move of a buffered machine, in terms of config ids.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BufferedMove {
    /// Thread `thread` starts as configuration `cfg`.
    Start { thread: usize, cfg: CfgId },
    /// Thread `thread` performs `action` (a read already resolved
    /// against its buffer or memory) and becomes `next`.
    Act {
        thread: usize,
        action: Action,
        next: CfgId,
        releases: bool,
    },
    /// A buffered store of `thread` to `loc` drains to memory (under
    /// TSO, the oldest one of its FIFO buffer).
    Flush { thread: usize, loc: Loc },
}

/// A buffered machine state, as the shared backend in
/// [`model`](crate::model) drives it. Equality and hashing see only
/// config ids, buffers, memory and holders.
pub(crate) trait Machine: Clone + Eq + Hash + Send + Sync {
    /// No thread started, memory zeroed, buffers empty.
    fn initial(threads: usize) -> Self;
    /// The configuration id of thread `k` ([`NOT_STARTED`] before its
    /// start move).
    fn cfg(&self, k: usize) -> CfgId;
    /// Does thread `k` have a buffered store to `loc`?
    fn has_buffered(&self, k: usize, loc: Loc) -> bool;
    /// All enabled moves, in deterministic order: every flush, then
    /// each thread's start or act move (see [`ConfigTable::thread_move`]).
    fn moves(
        &self,
        table: &mut ConfigTable,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Vec<BufferedMove>;
    /// The state after `mv`.
    fn apply(&self, mv: &BufferedMove) -> Self;
    /// The label of a flush of `loc`: per-location machines name the
    /// location, FIFO machines drain "the oldest store".
    fn flush_label(loc: Loc) -> MoveLabel;
}

/// The per-id memos.
#[derive(Debug, Default)]
struct Entry {
    /// The closure step, with the `max_tau` it was derived under.
    step: Option<(usize, NextStep)>,
    /// The configuration at its emitting load, kept for read resolution.
    at_emit: Option<ThreadConfig>,
    /// Resolved reads: the successor id per value read.
    reads: Vec<(Value, CfgId)>,
    meta: Option<Arc<CfgMeta>>,
}

/// The interned configurations of one program and their memos.
#[derive(Debug)]
pub(crate) struct ConfigTable {
    cfgs: StateInterner<ThreadConfig>,
    entries: Vec<Entry>,
    /// Per-thread id of the configuration a start move creates.
    start: Vec<CfgId>,
}

impl ConfigTable {
    pub(crate) fn new(program: &Program) -> Self {
        let mut table = ConfigTable {
            cfgs: StateInterner::new(),
            entries: Vec::new(),
            start: Vec::new(),
        };
        table.start = program
            .threads()
            .iter()
            .map(|body| table.intern(ThreadConfig::new(body.clone())))
            .collect();
        table
    }

    /// Interns a configuration as the machines store it: a finished
    /// thread keeps no registers or nesting.
    fn intern(&mut self, cfg: ThreadConfig) -> CfgId {
        let cfg = if cfg.is_done() {
            ThreadConfig::new(vec![])
        } else {
            cfg
        };
        let (id, new) = self.cfgs.intern(cfg);
        if new {
            self.entries.push(Entry::default());
        }
        id
    }

    /// The closure step of `id` under the silent-step bound `max_tau`.
    fn step(&mut self, id: CfgId, max_tau: usize) -> NextStep {
        if let Some((bound, step)) = self.entries[id as usize].step {
            if bound == max_tau {
                return step;
            }
        }
        let closure = self.cfgs.get(id).tau_closure(&Domain::zero_to(0), max_tau);
        let step = match closure {
            None => NextStep::Diverged,
            Some((_, Step::Done)) => NextStep::Done,
            Some((_, Step::Tau(_))) => unreachable!("tau_closure never stops at a silent step"),
            Some((at_emit, Step::Emit(successors))) => {
                let (action, next) = successors
                    .into_iter()
                    .next()
                    .expect("an emitting step has a successor");
                match action {
                    Action::Read { loc, .. } => {
                        self.entries[id as usize].at_emit = Some(at_emit);
                        NextStep::Read { loc }
                    }
                    _ => {
                        let releases =
                            matches!(action, Action::Unlock(m) if next.monitor_nesting(m) == 0);
                        NextStep::Act {
                            action,
                            next: self.intern(next),
                            releases,
                        }
                    }
                }
            }
        };
        self.entries[id as usize].step = Some((max_tau, step));
        step
    }

    /// The successor of `id`'s pending load when it reads `v`.
    fn read(&mut self, id: CfgId, v: Value) -> CfgId {
        let entry = &self.entries[id as usize];
        if let Some(&(_, next)) = entry.reads.iter().find(|(w, _)| *w == v) {
            return next;
        }
        let at_emit = entry
            .at_emit
            .as_ref()
            .expect("a load's emit point is kept by its closure step");
        let Step::Emit(successors) = at_emit.step(&Domain::from_values([v])) else {
            unreachable!("the closure stopped at an emitting statement")
        };
        let (_, next) = successors
            .into_iter()
            .find(|(a, _)| a.value() == Some(v))
            .expect("the domain contains v");
        let next = self.intern(next);
        self.entries[id as usize].reads.push((v, next));
        next
    }

    /// The footprint of thread `k`'s remaining code when its slot holds
    /// `slot`: the whole body before its start move.
    pub(crate) fn meta(&mut self, slot: CfgId, k: usize) -> Arc<CfgMeta> {
        let id = if slot == NOT_STARTED {
            self.start[k]
        } else {
            slot
        };
        let cfgs = &self.cfgs;
        Arc::clone(
            self.entries[id as usize]
                .meta
                .get_or_insert_with(|| Arc::new(CfgMeta::of_code(cfgs.get(id).code()))),
        )
    }

    /// The start or act move of thread `k` in slot `slot`, if enabled.
    /// `drained` says whether all of `k`'s buffers are empty (the fence
    /// condition of volatile accesses, locks and unlocks), and
    /// `read_value` gives the value a load of a location returns to `k`
    /// (its youngest buffered store, else memory). Sets `*truncated` on
    /// a silent divergence.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn thread_move(
        &mut self,
        k: usize,
        slot: CfgId,
        max_tau: usize,
        drained: bool,
        holders: &BTreeMap<Monitor, usize>,
        read_value: impl FnOnce(Loc) -> Value,
        truncated: &mut bool,
    ) -> Option<BufferedMove> {
        if slot == NOT_STARTED {
            return Some(BufferedMove::Start {
                thread: k,
                cfg: self.start[k],
            });
        }
        match self.step(slot, max_tau) {
            NextStep::Done => None,
            NextStep::Diverged => {
                *truncated = true;
                None
            }
            NextStep::Read { loc } => {
                if loc.is_volatile() && !drained {
                    return None;
                }
                let v = read_value(loc);
                Some(BufferedMove::Act {
                    thread: k,
                    action: Action::read(loc, v),
                    next: self.read(slot, v),
                    releases: false,
                })
            }
            NextStep::Act {
                action,
                next,
                releases,
            } => {
                let enabled = match action {
                    Action::Write { loc, .. } => drained || !loc.is_volatile(),
                    Action::External(_) => true,
                    Action::Lock(m) => drained && holders.get(&m).is_none_or(|&h| h == k),
                    Action::Unlock(_) => drained,
                    Action::Read { .. } | Action::Start(_) => {
                        unreachable!("reads resolve per value; starts are not thread actions")
                    }
                };
                enabled.then_some(BufferedMove::Act {
                    thread: k,
                    action,
                    next,
                    releases,
                })
            }
        }
    }
}

/// Applies the parts of an act move both machines share to a state's
/// threads, memory and holder table: volatile writes reach memory at
/// once, locks and releasing unlocks update the holder table, and the
/// thread becomes its successor. Non-volatile writes are the machine's
/// own business (they enter its store buffer).
pub(crate) fn apply_act(
    threads: &mut [CfgId],
    memory: &mut BTreeMap<Loc, Value>,
    holders: &mut BTreeMap<Monitor, usize>,
    thread: usize,
    action: Action,
    next: CfgId,
    releases: bool,
) {
    match action {
        Action::Write { loc, value } if loc.is_volatile() => {
            memory.insert(loc, value);
        }
        Action::Lock(m) => {
            holders.insert(m, thread);
        }
        Action::Unlock(m) if releases => {
            holders.remove(&m);
        }
        _ => {}
    }
    threads[thread] = next;
}
