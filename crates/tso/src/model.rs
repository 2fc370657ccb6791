//! The TSO and PSO machines as [`MemoryModel`] backends.
//!
//! These adapters put the crate's operational machines behind the
//! pluggable backend trait of `transafety-lang`, so the generic
//! [`ModelExplorer`](transafety_lang::ModelExplorer) — and through it
//! the checker's `Analysis` pipeline with budgets, interning and
//! metrics — runs the buffered semantics unchanged.
//!
//! Each model owns the program's [`ProgramExplorer`]. Its threads step
//! through that explorer's configuration table ([`Configs`]), and it
//! takes SC's action bound ([`ProgramExplorer::fuel`]) and await
//! collapse ([`Configs::collapse_awaits`]) as they are; only the
//! buffers, the fence rule and the reduction below are its own.
//!
//! Partial-order reduction **is** implemented here, for the
//! [`ReductionGoal::Behaviours`] goal only. Two ample-set shapes are
//! proven for the buffered machines and checked dynamically per state:
//!
//! - **Commuting flush** ([`ExpansionKind::AmpleFlush`]): a flush by
//!   thread `k` of location `pl` is a singleton ample set when no other
//!   thread has `pl` in its remaining-code footprint or its own buffer.
//!   Store-to-load forwarding makes the drain invisible to `k`'s own
//!   reads, and the condition excludes every other observer, so the
//!   flush commutes with all concurrently reachable moves; it strictly
//!   shrinks a buffer, so it can never close a cycle.
//! - **Invisible act** ([`ExpansionKind::Ample`]): the dynamic
//!   invisibility of the SC reduction, lifted to buffers — a
//!   non-volatile write is always invisible (it only appends to the
//!   writer's own buffer), a read is invisible when no other thread can
//!   ever write (or has buffered) the location, and locks/outputs are
//!   invisible when no other thread uses the monitor/emits output. The
//!   ast-size cycle proviso of `transafety-lang` ([`CfgMeta`]) gates
//!   the choice, so the reduction stays sound on loop-bearing programs.
//!
//!   A read that thread `k` would forward from its own buffer is *not*
//!   invisible on that ground alone: the forwarded value holds only
//!   while `k`'s entry stays buffered. In the order where `k` flushes
//!   the entry, another thread's write to the location then lands in
//!   memory, and only then `k` reads, the read returns the foreign
//!   value. That order starts with a move dependent on the read (the
//!   flush changes what it returns), so choosing the forwarded read as
//!   a singleton ample set would violate the ample-set condition C1 and
//!   prune the order's behaviours. Forwarded reads therefore fall under
//!   the same "no other thread writes or buffers the location" rule as
//!   every other read.
//!
//! For [`ReductionGoal::Races`] both models return the **full**
//! expansion: the adjacent-conflict witness argument needs the tracked
//! access and the racing access to be separated only by moves that
//! never touch their location, and an ample flush of that very
//! location would change the read values (and can enable/disable the
//! fence actions) of the reordered witness. Likewise
//! [`MemoryModel::search_fuel`] keeps its fuel-bounded default: with
//! loops, store buffers grow without bound, so the race search and the
//! census must be fuel-layered to terminate (SC overrides this; the
//! buffered models must not).
//!
//! That buffered race search is the oracle, not the checker's race
//! phase. A program races on these machines iff it races under SC
//! (§5, §8), so the checker runs the SC search, which is reduced and
//! exact on loops, and lifts its witness with
//! [`MemoryModel::lift_sc_witness`]: the SC interleaving, with every
//! non-volatile store flushed right after it is buffered.

use std::sync::Arc;

use transafety_interleaving::metrics::ExpansionKind;
use transafety_lang::{
    CfgMeta, Configs, ExploreOptions, MemoryModel, ModelMove, ModelRaceWitness, MoveLabel, Program,
    ProgramExplorer, Reduced, ReductionGoal, ScheduleStep,
};
use transafety_traces::{Action, MemoryModelKind};

use crate::buffered::{BufferedMove, Machine};
use crate::machine::TsoState;
use crate::pso::PsoState;

/// The Behaviours-goal reduction shared by the TSO and PSO backends:
/// prefer a commuting flush, then a dynamically invisible act move
/// that passes the ast-size cycle proviso, else the full expansion
/// ([`ExpansionKind::FullProviso`] when only the proviso blocked a
/// singleton). Every ample move strictly decreases the measure
/// `Σ 2·ast_size + Σ buffered stores` (a start move fires at most once
/// per thread), so no cycle of the reduced graph is ample-only and the
/// ignoring problem cannot arise.
fn reduce_buffered<S: Machine>(
    cfgs: &mut Configs<'_>,
    state: &S,
    mut moves: Vec<BufferedMove>,
) -> (Vec<BufferedMove>, ExpansionKind) {
    let metas: Vec<Arc<CfgMeta>> = state
        .threads()
        .iter()
        .enumerate()
        .map(|(j, &slot)| cfgs.meta(j, slot))
        .collect();
    let threads = metas.len();
    // Commuting-flush singleton: nobody but the flusher can ever
    // observe the drained location.
    let ample_flush = moves.iter().position(|mv| {
        let BufferedMove::Flush { thread: k, loc: pl } = *mv else {
            return false;
        };
        (0..threads)
            .all(|j| j == k || (!metas[j].accesses.contains(&pl) && !state.has_buffered(j, pl)))
    });
    if let Some(i) = ample_flush {
        let mv = moves.swap_remove(i);
        return (vec![mv], ExpansionKind::AmpleFlush);
    }
    // Invisible-act singleton, gated by the cycle proviso.
    let mut saw_invisible = false;
    for i in 0..moves.len() {
        let BufferedMove::Act(act) = moves[i] else {
            continue;
        };
        let k = act.thread;
        let invisible = match act.action {
            // A start is invisible and fires at most once per thread,
            // so it can never lie on a cycle of the reduced graph.
            Action::Start(_) => {
                let mv = moves.swap_remove(i);
                return (vec![mv], ExpansionKind::Ample);
            }
            Action::Read { loc, .. } | Action::Write { loc, .. } if loc.is_volatile() => false,
            Action::Read { loc, .. } => {
                // No other thread may ever write (or have buffered) the
                // location — even when the read would be forwarded from
                // the own buffer, which `k` may flush before a foreign
                // write lands (see the module doc).
                (0..threads).all(|j| {
                    j == k || (!metas[j].writes.contains(&loc) && !state.has_buffered(j, loc))
                })
            }
            // A non-volatile write only appends to the writer's own
            // buffer; its visibility happens at the (separate) flush.
            Action::Write { .. } => true,
            Action::Lock(m) | Action::Unlock(m) => {
                (0..threads).all(|j| j == k || !metas[j].monitors.contains(&m))
            }
            Action::External(_) => (0..threads).all(|j| j == k || !metas[j].externals),
        };
        if !invisible {
            continue;
        }
        saw_invisible = true;
        if cfgs.meta(k, act.next_cfg).ast_size < metas[k].ast_size {
            let mv = moves.swap_remove(i);
            return (vec![mv], ExpansionKind::Ample);
        }
    }
    let kind = if saw_invisible {
        ExpansionKind::FullProviso
    } else {
        ExpansionKind::Full
    };
    (moves, kind)
}

/// Lifts an SC race witness to the buffered machine `S`: the same
/// actions in the same order, each non-volatile store flushed by its
/// thread right after it is buffered, so memory always equals the SC
/// memory and every read returns its SC value. The racing access that
/// ends the witness stays buffered.
fn lift_sc_witness<S: Machine>(sc: ModelRaceWitness) -> ModelRaceWitness {
    let events = sc.witness.execution.events();
    let mut schedule = Vec::with_capacity(2 * events.len());
    for (i, event) in events.iter().enumerate() {
        let thread = event.thread().index() as usize;
        let action = event.action();
        schedule.push(ScheduleStep {
            thread,
            label: MoveLabel::Action(action),
        });
        if let Action::Write { loc, .. } = action {
            if !loc.is_volatile() && i + 1 < events.len() {
                schedule.push(ScheduleStep {
                    thread,
                    label: S::flush_label(loc),
                });
            }
        }
    }
    ModelRaceWitness {
        witness: sc.witness,
        schedule,
    }
}

/// Builds the model move of `mv`, applying it to `state`.
fn model_move<S: Machine>(state: &S, mv: BufferedMove) -> ModelMove<S> {
    let next = state.apply(&mv);
    match mv {
        BufferedMove::Act(act) => ModelMove {
            thread: act.thread,
            label: MoveLabel::Action(act.action),
            next,
        },
        BufferedMove::Flush { thread, loc } => ModelMove {
            thread,
            label: S::flush_label(loc),
            next,
        },
    }
}

/// All enabled moves of `state`, its threads stepped through the
/// configuration table of `explorer`.
fn buffered_moves<S: Machine>(
    explorer: &ProgramExplorer<'_>,
    state: &S,
    opts: &ExploreOptions,
    truncated: &mut bool,
) -> Vec<ModelMove<S>> {
    let moves = state.moves(&mut explorer.configs(opts.max_tau), truncated);
    moves.into_iter().map(|mv| model_move(state, mv)).collect()
}

/// The reduced moves of `state` for `goal`. The await collapse is
/// orthogonal to the POR: it applies to the behaviour goal even with
/// `por == false` (it is a stutter removal, not an ample-set choice),
/// and never to the race goal (a spin read can race). The reduction
/// runs on the id-level moves, under one lock of the configuration
/// table, so only the surviving moves build a successor state.
fn reduced_buffered_moves<S: Machine>(
    explorer: &ProgramExplorer<'_>,
    state: &S,
    goal: ReductionGoal,
    opts: &ExploreOptions,
    truncated: &mut bool,
) -> Reduced<S> {
    let mut cfgs = explorer.configs(opts.max_tau);
    let mut moves = state.moves(&mut cfgs, truncated);
    let (await_collapsed, await_wakeups) = if goal == ReductionGoal::Behaviours && opts.awaits {
        cfgs.collapse_awaits(&mut moves, |mv| match *mv {
            BufferedMove::Act(act) => Some((act, state.threads()[act.thread])),
            BufferedMove::Flush { .. } => None,
        })
    } else {
        (0, 0)
    };
    let (moves, kind) = if !opts.por || goal == ReductionGoal::Races {
        (moves, ExpansionKind::Full)
    } else {
        reduce_buffered(&mut cfgs, state, moves)
    };
    drop(cfgs);
    Reduced {
        moves: moves.into_iter().map(|mv| model_move(state, mv)).collect(),
        kind,
        await_collapsed,
        await_wakeups,
    }
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

    fn initial(&self) -> TsoState {
        TsoState::initial(self.explorer.program().thread_count())
    }

    fn moves(
        &self,
        state: &TsoState,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Vec<ModelMove<TsoState>> {
        buffered_moves(&self.explorer, state, opts, truncated)
    }

    fn reduced_moves(
        &self,
        state: &TsoState,
        goal: ReductionGoal,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Reduced<TsoState> {
        reduced_buffered_moves(&self.explorer, state, goal, opts, truncated)
    }

    fn fuel(&self, opts: &ExploreOptions) -> usize {
        self.explorer.fuel(opts)
    }

    fn lift_sc_witness(&self, witness: ModelRaceWitness) -> ModelRaceWitness {
        lift_sc_witness::<TsoState>(witness)
    }

    fn explorer(&self) -> &ProgramExplorer<'_> {
        &self.explorer
    }
}

/// The PSO machine (per-thread **per-location** FIFO store buffers) as
/// a [`MemoryModel`] backend; see [`TsoModel`] for usage. Flush moves
/// carry the drained location in their
/// [`MoveLabel::Flush`](transafety_lang::MoveLabel) label, so a PSO
/// witness schedule shows which buffer drained at each step.
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

    fn initial(&self) -> PsoState {
        PsoState::initial(self.explorer.program().thread_count())
    }

    fn moves(
        &self,
        state: &PsoState,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Vec<ModelMove<PsoState>> {
        buffered_moves(&self.explorer, state, opts, truncated)
    }

    fn reduced_moves(
        &self,
        state: &PsoState,
        goal: ReductionGoal,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Reduced<PsoState> {
        reduced_buffered_moves(&self.explorer, state, goal, opts, truncated)
    }

    fn fuel(&self, opts: &ExploreOptions) -> usize {
        self.explorer.fuel(opts)
    }

    fn lift_sc_witness(&self, witness: ModelRaceWitness) -> ModelRaceWitness {
        lift_sc_witness::<PsoState>(witness)
    }

    fn explorer(&self) -> &ProgramExplorer<'_> {
        &self.explorer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_lang::{parse_program, ModelExplorer};
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
