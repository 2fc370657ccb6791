//! What the TSO and PSO machines share: the moves of a buffered machine
//! and its fence rule.
//!
//! A buffered machine state holds one configuration id per thread, of
//! the program's [`ProgramExplorer`](transafety_lang::ProgramExplorer)
//! configuration table: the thread layer is the SC one, stepped through
//! [`Configs`]. Only the memory differs — store buffers, drained by
//! flush moves — and with it which thread moves are enabled.

use std::collections::BTreeMap;
use std::hash::Hash;

use transafety_lang::{CfgId, Configs, MoveLabel, ThreadMove};
use transafety_traces::{Action, Loc, Monitor, Value};

/// One enabled move of a buffered machine.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BufferedMove {
    /// A thread starts, or performs an action (a read already resolved
    /// against its buffer or memory).
    Act(ThreadMove),
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
    /// The configuration id of each thread
    /// ([`NOT_STARTED`](transafety_lang::NOT_STARTED) before its start
    /// move).
    fn threads(&self) -> &[CfgId];
    /// The monitor holder table.
    fn holders(&self) -> &BTreeMap<Monitor, usize>;
    /// Does thread `k` have a buffered store to `loc`?
    fn has_buffered(&self, k: usize, loc: Loc) -> bool;
    /// Are all of thread `k`'s buffers empty?
    fn drained(&self, k: usize) -> bool;
    /// The value thread `k` reads from `loc`: its youngest buffered
    /// store to `loc`, else shared memory.
    fn read_value(&self, k: usize, loc: Loc) -> Value;
    /// Every enabled flush, in deterministic order.
    fn flushes(&self) -> Vec<BufferedMove>;
    /// The state after `mv`.
    fn apply(&self, mv: &BufferedMove) -> Self;
    /// The label of a flush of `loc`: per-location machines name the
    /// location, FIFO machines drain "the oldest store".
    fn flush_label(loc: Loc) -> MoveLabel;

    /// All enabled moves, in deterministic order: every flush, then
    /// each thread's start or act move. Volatile accesses, locks and
    /// unlocks act as fences: they wait until the thread's buffers have
    /// drained. Sets `*truncated` on a silent divergence.
    fn moves(&self, cfgs: &mut Configs<'_>, truncated: &mut bool) -> Vec<BufferedMove> {
        let mut out = self.flushes();
        for (k, &slot) in self.threads().iter().enumerate() {
            let drained = self.drained(k);
            let mv = cfgs.thread_move(
                k,
                slot,
                |loc| (drained || !loc.is_volatile()).then(|| self.read_value(k, loc)),
                |action| match *action {
                    Action::Write { loc, .. } => drained || !loc.is_volatile(),
                    Action::Lock(m) => drained && self.holders().get(&m).is_none_or(|&h| h == k),
                    Action::Unlock(_) => drained,
                    _ => true,
                },
                truncated,
            );
            out.extend(mv.map(BufferedMove::Act));
        }
        out
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
