//! Direct exploration of a program's sequentially consistent executions.
//!
//! The traceset route (extract `[P]`, then run
//! [`Explorer`](transafety_interleaving::Explorer)) is faithful to §3 but
//! materialises wrong-value reads that sequential consistency immediately
//! rules out. This module explores the *program* state space directly —
//! reads observe the current memory — which is exponentially smaller and
//! is the engine the checker and the benchmarks use for whole programs.
//! The two routes are cross-validated in the test suites.
//!
//! # State representation
//!
//! Thread configurations are interned once into a per-explorer
//! [`CfgCache`]: each distinct τ-closed [`ThreadConfig`] gets a dense
//! `u32` id and a pre-derived [`StepTemplate`] describing its next
//! emitting step, so the hot move loop never re-runs `tau_closure` (the
//! old engine ran it twice per read) and never clones configurations.
//! The cache is the one thread layer of every memory model: the TSO and
//! PSO machines of `transafety-tso` own a `ProgramExplorer`, and the
//! generic move generator of [`ModelExplorer`] steps their threads
//! through the same table ([`Configs`]). The SC machine state is a
//! compact word buffer ([`CState`]): per-thread cfg ids, dense memory
//! values indexed by pre-computed location ids, a written bitmap (the
//! old `BTreeMap` distinguished never-written from written-zero), and an
//! inline holder table. States intern into a
//! [`StateInterner`] and every memo/visited structure keys on `u32` ids
//! hashed with the cheap FxHash. The encoding is bijective with the old
//! `PState` representation (checked by
//! [`audit_intern`](ProgramExplorer::audit_intern) and the property
//! suite); the pre-interning engine is retained as the `*_reference`
//! entry points for differential testing and benchmarking.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use transafety_interleaving::intern::{FxHashMap, FxHashSet, InternAudit, StateInterner};
use transafety_interleaving::metrics::ExpansionKind;
use transafety_interleaving::{Behaviours, BudgetGuard, Event, Interleaving, RaceWitness};
use transafety_traces::{Action, Domain, Loc, Monitor, ThreadId, Value};

use crate::ast::Program;
use crate::model::{ModelExplorer, ScModel};
use crate::semantics::{Step, ThreadConfig};

/// Bounds for program-level exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Maximum number of actions along any single execution considered by
    /// [`ProgramExplorer::behaviours`] (loops make the exact set
    /// infinite; the bounded set is exact for executions up to this
    /// length).
    pub max_actions: usize,
    /// Maximum silent steps between two actions of one thread.
    pub max_tau: usize,
    /// Apply the dynamic partial-order reduction to the behaviour and
    /// race entry points (default: `true`). Invisibility is decided
    /// against the *suffix* footprints of the other threads' remaining
    /// code, and an ast-size cycle proviso keeps spinning threads out
    /// of the ample sets, so the reduction is sound on loop-bearing
    /// programs too (the old engine disabled itself on any `while`).
    /// Disabling is for cross-validation and state-space measurement
    /// only: both settings produce the same behaviours and the same
    /// racy/DRF verdict.
    pub por: bool,
    /// Apply the await-aware stutter reduction to the behaviour phase
    /// (default: `true`). A failed re-read inside a recognised await
    /// loop (a `while` whose body is exactly one shared load, plus
    /// `skip` and block structure) maps the state to itself; such
    /// self-loop moves are dropped, so a spinning thread sleeps until a
    /// write changes the watched location (value-change wakeup — the
    /// moves are recomputed per state, so any memory change re-enables
    /// the read). When *every* loop in the program is await-shaped this
    /// makes the behaviour state graph acyclic and the exploration runs
    /// unbounded fuel: spin programs get complete verdicts instead of
    /// budget-truncated ones. The race phase never collapses (a spin
    /// read can race; one representative failed read stays adjacent to
    /// every write of the watched location). Disabling is for
    /// cross-validation: both settings produce the same behaviours and
    /// the same racy/DRF verdict wherever the unreduced run completes.
    pub awaits: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_actions: 32,
            max_tau: 4096,
            por: true,
            awaits: true,
        }
    }
}

/// A result that may have been cut short by exploration bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bounded<T> {
    /// The computed value.
    pub value: T,
    /// `true` if no bound was hit, i.e. the value is exact for the
    /// unbounded semantics.
    pub complete: bool,
}

/// Exhaustive explorer of a program's SC executions (the direct,
/// state-space analogue of [`transafety_interleaving::Explorer`]).
///
/// # Example
///
/// ```
/// use transafety_lang::{ExploreOptions, Program, ProgramExplorer, Reg, Stmt};
/// use transafety_traces::{Loc, Value};
/// let x = Loc::normal(0);
/// // T0: x := 1 — T1: r0 := x; print r0
/// let p = Program::new(vec![
///     vec![
///         Stmt::Move { dst: Reg::new(0), src: Value::new(1).into() },
///         Stmt::Store { loc: x, src: Reg::new(0) },
///     ],
///     vec![Stmt::Load { dst: Reg::new(0), loc: x }, Stmt::Print(Reg::new(0))],
/// ]);
/// let ex = ProgramExplorer::new(&p);
/// let b = ex.behaviours(&ExploreOptions::default());
/// assert!(b.complete);
/// assert!(b.value.contains(&vec![Value::new(0)]));
/// assert!(b.value.contains(&vec![Value::new(1)]));
/// assert!(!ex.is_data_race_free(&ExploreOptions::default()), "unsynchronised");
/// ```
#[derive(Debug)]
pub struct ProgramExplorer<'p> {
    program: &'p Program,
    /// Sorted location universe; a location's dense id is its index.
    locs: Vec<Loc>,
    /// Sorted monitor universe.
    monitors: Vec<Monitor>,
    /// The interned thread-configuration space plus derived step
    /// templates, shared by every entry point of this explorer and by
    /// every memory model built over it (see [`Configs`]).
    cache: Mutex<CfgCache>,
}

/// The id of an interned thread configuration in a
/// [`ProgramExplorer`]'s configuration table, which every memory model
/// stores its threads as.
pub type CfgId = u32;

/// The cfg-id word of a thread that has not started yet.
pub const NOT_STARTED: CfgId = u32::MAX;

/// The per-explorer configuration cache: the interned [`ThreadConfig`]
/// space, a lazily derived [`StepTemplate`] per cfg id, and a memo of
/// read successors. Built for one `max_tau` at a time (templates encode
/// divergence at that bound); a call with a different bound rebuilds it.
#[derive(Debug, Default)]
struct CfgCache {
    max_tau: usize,
    valid: bool,
    cfgs: StateInterner<ThreadConfig>,
    templates: Vec<Option<StepTemplate>>,
    /// `(at_emit cfg id, read value) -> (action, successor cfg id)`.
    read_succ: FxHashMap<(u32, u32), (Action, u32)>,
    /// Per-thread initial cfg ids (the successor of the start move).
    initial: Vec<u32>,
    /// Lazily derived [`CfgMeta`] per cfg id (suffix footprint and
    /// ast size of the remaining code), for the dynamic reduction.
    meta: Vec<Option<Arc<CfgMeta>>>,
}

/// The static footprint and size of one thread configuration's
/// **remaining** code: every location and monitor the continuation can
/// still touch, whether it can still emit output, and the
/// continuation's AST size (the well-founded measure of the cycle
/// proviso). A pure function of the code, memoised per interned cfg id,
/// so the reduced move choice stays a pure function of the state and
/// memoisation remains exact. The one reduction of [`ModelExplorer`]
/// reads it for every memory model ([`Configs::meta`]).
#[derive(Debug, Default)]
pub(crate) struct CfgMeta {
    /// Locations the remaining code can still write.
    pub writes: std::collections::BTreeSet<Loc>,
    /// Locations the remaining code can still read or write.
    pub accesses: std::collections::BTreeSet<Loc>,
    /// Monitors the remaining code can still lock or unlock.
    pub monitors: std::collections::BTreeSet<Monitor>,
    /// Can the remaining code still emit output?
    pub externals: bool,
    /// Statement-node count of the remaining code: the well-founded
    /// measure of the cycle proviso (any non-looping step strictly
    /// shrinks it; a loop unfolding does not).
    pub ast_size: usize,
    /// Locations watched by *await loops* in the remaining code: a
    /// `while` whose body is exactly one shared load (plus `skip` /
    /// block structure — no stores, locks, prints, moves or nested
    /// control). Re-reading such a location without a value change is a
    /// pure stutter; the behaviour phase collapses those self-loops
    /// (see [`ExploreOptions::awaits`]).
    pub awaits: std::collections::BTreeSet<Loc>,
}

impl CfgMeta {
    /// Computes the footprint of a remaining-code statement list.
    fn of_code(code: &[crate::ast::Stmt]) -> CfgMeta {
        let mut m = CfgMeta::default();
        for s in code {
            m.absorb(s);
        }
        m
    }

    /// Over-approximates (dead branches count), which is the safe
    /// direction for the reduction; `ast_size` counts every statement
    /// node, so any non-looping step strictly shrinks it while a loop
    /// unfolding does not.
    fn absorb(&mut self, s: &crate::ast::Stmt) {
        use crate::ast::Stmt;
        self.ast_size += 1;
        match s {
            Stmt::Store { loc, .. } => {
                self.writes.insert(*loc);
                self.accesses.insert(*loc);
            }
            Stmt::Load { loc, .. } => {
                self.accesses.insert(*loc);
            }
            Stmt::Lock(m) | Stmt::Unlock(m) => {
                self.monitors.insert(*m);
            }
            Stmt::Print(_) => self.externals = true,
            Stmt::Block(b) => {
                for s in b {
                    self.absorb(s);
                }
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                self.absorb(then_branch);
                self.absorb(else_branch);
            }
            Stmt::While { body, .. } => {
                if let Some(loc) = await_watch(body) {
                    self.awaits.insert(loc);
                }
                self.absorb(body);
            }
            _ => {}
        }
    }
}

/// The location a `while` body watches, when the body is await-shaped:
/// exactly one shared load, wrapped in nothing but `skip`s and blocks.
/// Anything else (a store, lock, print, register move, nested control, a
/// second load) has effects a stutter collapse could lose, so the loop
/// is not recognised.
fn await_watch(body: &crate::ast::Stmt) -> Option<Loc> {
    fn scan(s: &crate::ast::Stmt, watch: &mut Option<Loc>) -> bool {
        use crate::ast::Stmt;
        match s {
            Stmt::Skip => true,
            Stmt::Load { loc, .. } => watch.replace(*loc).is_none(),
            Stmt::Block(b) => b.iter().all(|s| scan(s, watch)),
            _ => false,
        }
    }
    let mut watch = None;
    scan(body, &mut watch).then_some(watch).flatten()
}

/// What a thread configuration does next, pre-derived from one
/// `tau_closure` run so the move loop never steps the semantics again.
#[derive(Debug, Clone, Copy)]
enum StepTemplate {
    /// The thread is finished: no moves.
    Done,
    /// `tau_closure` exceeded `max_tau`: silent divergence (the thread's
    /// moves are dropped and the exploration marked truncated).
    Diverged,
    /// The next action reads `loc`; the successor depends on the value
    /// read, resolved through the `read_succ` memo of the `at_emit`
    /// configuration (the closure stopped at the load).
    Read { loc: Loc, at_emit: u32 },
    /// Any other action, with its single successor. `releases` is set
    /// for an unlock whose successor has left the monitor entirely —
    /// computed from the *pre-normalisation* successor, so a finishing
    /// thread that leaks a lock keeps holding it.
    Emit {
        action: Action,
        next: u32,
        releases: bool,
    },
}

/// The compact machine state: one word per thread (its cfg id, or
/// [`NOT_STARTED`]), dense memory values, the written bitmap, and one
/// holder word per monitor (`holder + 1`, `0` = free).
///
/// Public only as the opaque [`MemoryModel::State`](crate::MemoryModel)
/// of the [`ScModel`](crate::ScModel) backend; its contents are an
/// internal encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CState {
    words: Box<[u32]>,
}

impl CState {
    /// The cfg id of thread `k`.
    pub(crate) fn cfg(&self, k: usize) -> CfgId {
        self.words[k]
    }
}

/// One enabled move of one thread, in cfg ids: the action it performs
/// (a start, or a read already resolved to its value) and the
/// configuration it leaves the thread in. `Copy`: applying a move
/// clones nothing.
#[derive(Debug, Clone, Copy)]
pub struct ThreadMove {
    /// The moving thread.
    pub thread: usize,
    /// The action performed.
    pub action: Action,
    /// The thread's configuration after the move.
    pub next_cfg: CfgId,
    /// An unlock that drops the monitor's nesting to zero.
    pub releases: bool,
}

/// A [`ProgramExplorer`]'s configuration cache, locked for one
/// expansion (see [`ProgramExplorer::configs`]).
///
/// The thread layer of the §6 semantics is the same under every memory
/// model: the TSO and PSO machines of `transafety-tso` add store
/// buffers to the *memory* only. So every model stores its threads as
/// the cfg ids of this one table, and [`ModelExplorer`]'s move generator
/// steps them through it. Each
/// distinct τ-closed [`ThreadConfig`] gets a dense id in first-seen
/// order, and per id the table memoises the closure step, the read
/// successors and the [`CfgMeta`] footprint. Silent steps are
/// deterministic and unobservable, so interning the closed form
/// identifies configurations that differ only in silent progress, under
/// every model alike.
#[derive(Debug)]
pub(crate) struct Configs<'a> {
    cache: MutexGuard<'a, CfgCache>,
}

impl Configs<'_> {
    /// The move of thread `thread`, whose slot holds `slot`, if
    /// enabled: the start move of a thread not yet started, else its
    /// next action. A load asks `read` for the value it reads (`None`
    /// disables it); any other action is enabled when `enabled` says
    /// so. Sets `*truncated` when the thread silently diverges (it then
    /// has no move).
    pub(crate) fn thread_move(
        &mut self,
        thread: usize,
        slot: CfgId,
        read: impl FnOnce(Loc) -> Option<Value>,
        enabled: impl FnOnce(&Action) -> bool,
        truncated: &mut bool,
    ) -> Option<ThreadMove> {
        if slot == NOT_STARTED {
            return Some(ThreadMove {
                thread,
                action: Action::start(ThreadId::new(thread as u32)),
                next_cfg: self.cache.initial[thread],
                releases: false,
            });
        }
        match self.cache.template(slot) {
            StepTemplate::Done => None,
            StepTemplate::Diverged => {
                *truncated = true;
                None
            }
            StepTemplate::Read { loc, at_emit } => {
                let (action, next_cfg) = self.cache.read_successor(at_emit, read(loc)?);
                Some(ThreadMove {
                    thread,
                    action,
                    next_cfg,
                    releases: false,
                })
            }
            StepTemplate::Emit {
                action,
                next,
                releases,
            } => enabled(&action).then_some(ThreadMove {
                thread,
                action,
                next_cfg: next,
                releases,
            }),
        }
    }

    /// The [`CfgMeta`] of thread `thread`'s remaining code when its slot
    /// holds `slot`: the whole (τ-closed) body before its start move.
    pub(crate) fn meta(&mut self, thread: usize, slot: CfgId) -> Arc<CfgMeta> {
        let id = match slot {
            NOT_STARTED => self.cache.initial[thread],
            id => id,
        };
        self.cache.meta(id)
    }

    /// The behaviour-phase stutter collapse: drops every move that is a
    /// failed re-read of an await-watched location (see
    /// [`CfgMeta::awaits`]) leaving the state unchanged. `act` gives a
    /// move's thread move and its thread's current cfg id, or `None`
    /// for a move no thread performs (a buffer flush). A read changes
    /// nothing but the reader's configuration, so under every model
    /// `next_cfg == current` is exactly "the successor state is this
    /// state" (memory and store buffers are untouched either way).
    /// Returns `(collapsed, wakeups)`: dropped self-loops, and kept
    /// reads on a watched location (the spinner advancing — a value
    /// change, a loop exit, or the first iteration materialising its
    /// guard register). Never used by the race phase: a spin read can
    /// race, and the representative failed read must stay adjacent to
    /// every write of the watched location.
    pub(crate) fn collapse_awaits<T>(
        &mut self,
        moves: &mut Vec<T>,
        act: impl Fn(&T) -> Option<(ThreadMove, CfgId)>,
    ) -> (u64, u64) {
        let mut collapsed = 0u64;
        let mut wakeups = 0u64;
        moves.retain(|mv| {
            let Some((mv, current)) = act(mv) else {
                return true;
            };
            let Action::Read { loc, .. } = mv.action else {
                return true;
            };
            if current == NOT_STARTED || !self.cache.meta(current).awaits.contains(&loc) {
                return true;
            }
            if mv.next_cfg == current {
                collapsed += 1;
                false
            } else {
                wakeups += 1;
                true
            }
        });
        (collapsed, wakeups)
    }
}

/// The uncompressed reference state, kept for the pre-interning
/// reference engine and the encode/decode audits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PState {
    threads: Vec<Option<ThreadConfig>>, // None = not yet started
    memory: BTreeMap<Loc, Value>,
    holders: BTreeMap<Monitor, usize>,
}

#[derive(Debug, Clone)]
struct PMove {
    thread: usize,
    action: Action,
    next: Option<ThreadConfig>,
}

/// The previous normal access of the race searches, as
/// `(thread, location, was_write)`.
type Prev = Option<(usize, Loc, bool)>;

impl CfgCache {
    /// Interns a configuration, normalising it to its τ-closure first:
    /// silent steps (register moves, branch selection, loop
    /// unfolding/exit) are deterministic and unobservable, so the
    /// emit-point configuration is semantically interchangeable with
    /// any silent predecessor — interning the closed form dedups states
    /// that differ only in silent progress, sharpens the [`CfgMeta`]
    /// suffix footprints (a decided branch drops the untaken side), and
    /// gives the ast-size cycle proviso the *unfolded* view of a loop
    /// head, so entering a register-decided loop iteration is
    /// size-decreasing like any other statement. Finished threads
    /// normalise to the canonical empty config (their registers and
    /// nesting can never be observed again). A silently diverging
    /// configuration is interned as-is; template derivation flags it.
    fn intern_normalised(&mut self, cfg: ThreadConfig) -> u32 {
        let cfg = match cfg.tau_closure(&Domain::zero_to(0), self.max_tau) {
            Some((_, Step::Done)) => ThreadConfig::new(vec![]),
            Some((at_emit, _)) => at_emit,
            None => cfg,
        };
        self.cfgs.intern(cfg).0
    }

    /// The step template of cfg `id`, deriving (and memoising) it on
    /// first use.
    fn template(&mut self, id: u32) -> StepTemplate {
        let i = id as usize;
        if let Some(Some(t)) = self.templates.get(i) {
            return *t;
        }
        let t = self.derive_template(id);
        if i >= self.templates.len() {
            self.templates.resize(i + 1, None);
        }
        self.templates[i] = Some(t);
        t
    }

    /// One `tau_closure` run, folded into a template. The old engine
    /// re-ran the closure on every visit (twice for reads); the template
    /// runs it once per distinct configuration, ever.
    fn derive_template(&mut self, id: u32) -> StepTemplate {
        let cfg = self.cfgs.get(id).clone();
        // The read domain is irrelevant for direct exploration (loads
        // read memory); pass a minimal domain and resolve reads through
        // the `at_emit` configuration.
        let domain = Domain::zero_to(0);
        let Some((at_emit, step)) = cfg.tau_closure(&domain, self.max_tau) else {
            return StepTemplate::Diverged;
        };
        match step {
            Step::Done => StepTemplate::Done,
            Step::Tau(_) => unreachable!("tau_closure never returns Tau"),
            Step::Emit(successors) => {
                let (action, next) = successors.into_iter().next().expect("one successor");
                match action {
                    Action::Read { loc, .. } => StepTemplate::Read {
                        loc,
                        at_emit: self.cfgs.intern(at_emit).0,
                    },
                    _ => {
                        let releases =
                            matches!(action, Action::Unlock(m) if next.monitor_nesting(m) == 0);
                        StepTemplate::Emit {
                            action,
                            next: self.intern_normalised(next),
                            releases,
                        }
                    }
                }
            }
        }
    }

    /// The [`CfgMeta`] of cfg `id`, deriving (and memoising) it on
    /// first use.
    fn meta(&mut self, id: u32) -> Arc<CfgMeta> {
        let i = id as usize;
        if let Some(Some(m)) = self.meta.get(i) {
            return Arc::clone(m);
        }
        let m = Arc::new(CfgMeta::of_code(self.cfgs.get(id).code()));
        if i >= self.meta.len() {
            self.meta.resize(i + 1, None);
        }
        self.meta[i] = Some(Arc::clone(&m));
        m
    }

    /// The successor of the `at_emit` configuration when its load reads
    /// `v`, memoised per `(at_emit, v)`.
    fn read_successor(&mut self, at_emit: u32, v: Value) -> (Action, u32) {
        if let Some(&r) = self.read_succ.get(&(at_emit, v.get())) {
            return r;
        }
        let cfg = self.cfgs.get(at_emit).clone();
        let Step::Emit(succ) = cfg.step(&Domain::from_values([v])) else {
            unreachable!("closure stopped at an emitting statement")
        };
        let (a, next) = succ
            .into_iter()
            .find(|(a, _)| a.value() == Some(v))
            .expect("domain contains v");
        let r = (a, self.intern_normalised(next));
        self.read_succ.insert((at_emit, v.get()), r);
        r
    }
}

impl<'p> ProgramExplorer<'p> {
    /// Creates an explorer for the program.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        let mut accessed: std::collections::BTreeSet<Loc> = Default::default();
        let mut monitors: std::collections::BTreeSet<Monitor> = Default::default();
        for thread in program.threads() {
            for stmt in thread {
                collect_accesses(stmt, &mut accessed);
                collect_monitors(stmt, &mut monitors);
            }
        }
        ProgramExplorer {
            program,
            locs: accessed.into_iter().collect(),
            monitors: monitors.into_iter().collect(),
            cache: Mutex::new(CfgCache::default()),
        }
    }

    // -- compact layout helpers ---------------------------------------

    fn mem_base(&self) -> usize {
        self.program.thread_count()
    }

    fn bit_base(&self) -> usize {
        self.mem_base() + self.locs.len()
    }

    fn holder_base(&self) -> usize {
        self.bit_base() + self.locs.len().div_ceil(32)
    }

    fn word_count(&self) -> usize {
        self.holder_base() + self.monitors.len()
    }

    fn loc_index(&self, loc: Loc) -> usize {
        self.locs
            .binary_search(&loc)
            .expect("location in the program's access universe")
    }

    fn holder_slot(&self, m: Monitor) -> usize {
        self.holder_base()
            + self
                .monitors
                .binary_search(&m)
                .expect("monitor in the program's universe")
    }

    pub(crate) fn mem(&self, state: &CState, loc: Loc) -> Value {
        // Unwritten cells hold the zero word — exactly the read default.
        Value::new(state.words[self.mem_base() + self.loc_index(loc)])
    }

    pub(crate) fn holder(&self, state: &CState, m: Monitor) -> Option<usize> {
        // Holder words store `holder + 1`; `0` is free.
        (state.words[self.holder_slot(m)] as usize).checked_sub(1)
    }

    pub(crate) fn initial_compact(&self) -> CState {
        let mut words = vec![0u32; self.word_count()].into_boxed_slice();
        for w in words.iter_mut().take(self.program.thread_count()) {
            *w = NOT_STARTED;
        }
        CState { words }
    }

    /// The program this explorer explores.
    #[must_use]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    // -- configuration cache ------------------------------------------

    /// Locks the configuration cache for one expansion, (re)building it
    /// for the silent-step bound `max_tau` first if it was built for
    /// another. Cfg ids stay valid while the bound stays the same, which
    /// it does for the whole of one exploration.
    pub(crate) fn configs(&self, max_tau: usize) -> Configs<'_> {
        // Recover from poisoning: a panic caught further up must not
        // take later analyses of this explorer down with it, and the
        // cache is only ever extended, never left half-updated.
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if !cache.valid || cache.max_tau != max_tau {
            *cache = CfgCache {
                max_tau,
                valid: true,
                ..CfgCache::default()
            };
            for body in self.program.threads() {
                let id = cache.intern_normalised(ThreadConfig::new(body.clone()));
                cache.initial.push(id);
            }
        }
        Configs { cache }
    }

    // -- transitions ---------------------------------------------------

    /// Applies a move: clone the parent's word buffer and patch the
    /// affected words (no config clones, no tree rebuilds).
    pub(crate) fn apply(&self, state: &CState, mv: &ThreadMove) -> CState {
        let mut words = state.words.clone();
        words[mv.thread] = mv.next_cfg;
        match mv.action {
            Action::Write { loc, value } => {
                let i = self.loc_index(loc);
                words[self.mem_base() + i] = value.get();
                words[self.bit_base() + i / 32] |= 1 << (i % 32);
            }
            Action::Lock(m) => {
                words[self.holder_slot(m)] = mv.thread as u32 + 1;
            }
            Action::Unlock(m) if mv.releases => {
                words[self.holder_slot(m)] = 0;
            }
            _ => {}
        }
        CState { words }
    }

    /// The behaviours of the program's executions, by memoised dynamic
    /// programming.
    ///
    /// For loop-free programs the result is **exact** and the memo is
    /// keyed on program states only (every action strictly consumes a
    /// statement, so the state graph is a DAG). Programs with `while`
    /// loops have infinitely many behaviours in general; they are
    /// explored up to `opts.max_actions` actions per execution, with the
    /// bound recorded in [`Bounded::complete`].
    #[must_use]
    pub fn behaviours(&self, opts: &ExploreOptions) -> Bounded<Behaviours> {
        self.behaviours_governed(opts, &BudgetGuard::unlimited())
    }

    /// [`behaviours`](ProgramExplorer::behaviours) under a budget: the
    /// memoised recursion checks `guard` cooperatively at every state
    /// visit. A tripped guard truncates the set (recorded both in
    /// [`Bounded::complete`] and as the guard's trip reason); fuel or
    /// silent-divergence truncation is recorded on the guard as the
    /// action-bound reason.
    #[must_use]
    pub fn behaviours_governed(
        &self,
        opts: &ExploreOptions,
        guard: &BudgetGuard,
    ) -> Bounded<Behaviours> {
        ModelExplorer::new(&ScModel::new(self)).behaviours_governed(opts, guard)
    }

    /// The per-execution action bound of the behaviour phase, under
    /// every memory model. Loop-free programs need none (every action
    /// consumes a statement, and on the buffered machines every flush
    /// shrinks a buffer, so the state graph is a DAG). With the await
    /// reduction on, a program whose *only* loops are await loops needs
    /// none either: the only moves that could close a cycle are failed
    /// await re-reads, the second of which is an exact self-loop the
    /// collapse drops — so the collapsed graph is acyclic and the
    /// exploration is exact. Await bodies store nothing, so the store
    /// buffers of such a program stay bounded too.
    #[must_use]
    pub fn fuel(&self, opts: &ExploreOptions) -> usize {
        if !program_has_loops(self.program)
            || (opts.awaits && program_loops_are_awaits(self.program))
        {
            usize::MAX
        } else {
            opts.max_actions
        }
    }

    /// Searches for a data race (§3's adjacent-conflict condition over
    /// the program's executions). Exact: the program state space is
    /// finite (values are drawn from program constants), so the visited
    /// set needs no fuel.
    #[must_use]
    pub fn race_witness(&self, opts: &ExploreOptions) -> Option<RaceWitness> {
        self.race_witness_governed(opts, &BudgetGuard::unlimited())
    }

    /// [`race_witness`](ProgramExplorer::race_witness) under a budget:
    /// the DFS checks `guard` at every newly visited search node. With
    /// a tripped guard the search may return `None` without having
    /// proven freedom — callers must consult the guard's trip reason
    /// before trusting a `None`.
    #[must_use]
    pub fn race_witness_governed(
        &self,
        opts: &ExploreOptions,
        guard: &BudgetGuard,
    ) -> Option<RaceWitness> {
        ModelExplorer::new(&ScModel::new(self))
            .race_witness_governed(opts, guard)
            .map(|w| w.witness)
    }

    /// Is the program data race free?
    #[must_use]
    pub fn is_data_race_free(&self, opts: &ExploreOptions) -> bool {
        self.race_witness(opts).is_none()
    }

    /// Finds an execution whose behaviour equals `behaviour`, if one
    /// exists within the bounds — the witness extractor behind
    /// counterexample reports.
    #[must_use]
    pub fn execution_with_behaviour(
        &self,
        behaviour: &[Value],
        opts: &ExploreOptions,
    ) -> Option<Interleaving> {
        let mut interner: StateInterner<CState> = StateInterner::new();
        let mut visited: FxHashSet<(u32, usize)> = FxHashSet::default();
        let mut path: Vec<Event> = Vec::new();
        let mut truncated = false;
        self.behaviour_dfs(
            &ModelExplorer::new(&ScModel::new(self)),
            self.initial_compact(),
            behaviour,
            0,
            opts,
            &mut interner,
            &mut visited,
            &mut path,
            &mut truncated,
        )
        .then(|| Interleaving::from_events(path))
    }

    /// The unreduced depth-first search behind
    /// [`execution_with_behaviour`](ProgramExplorer::execution_with_behaviour),
    /// stepping through the generic move generator.
    #[allow(clippy::too_many_arguments)]
    fn behaviour_dfs(
        &self,
        mx: &ModelExplorer<'_, ScModel<'_, '_>>,
        state: CState,
        target: &[Value],
        emitted: usize,
        opts: &ExploreOptions,
        interner: &mut StateInterner<CState>,
        visited: &mut FxHashSet<(u32, usize)>,
        path: &mut Vec<Event>,
        truncated: &mut bool,
    ) -> bool {
        if emitted == target.len() {
            return true;
        }
        if path.len() > opts.max_actions {
            return false;
        }
        let (id, _) = interner.intern_ref(&state);
        if !visited.insert((id, emitted)) {
            return false;
        }
        for mv in mx.moves(&state, opts, truncated) {
            let action = mv.label.action().expect("SC moves are actions");
            let next_emitted = match action {
                Action::External(v) => {
                    if target.get(emitted) != Some(&v) {
                        continue; // wrong output — prune this branch
                    }
                    emitted + 1
                }
                _ => emitted,
            };
            path.push(Event::new(ThreadId::new(mv.thread as u32), action));
            if self.behaviour_dfs(
                mx,
                mv.next,
                target,
                next_emitted,
                opts,
                interner,
                visited,
                path,
                truncated,
            ) {
                return true;
            }
            path.pop();
        }
        false
    }

    /// The number of distinct program states reachable under the bounds
    /// (a size measure for the scaling experiments).
    #[must_use]
    pub fn count_reachable_states(&self, opts: &ExploreOptions) -> usize {
        self.count_reachable_states_governed(opts, &BudgetGuard::unlimited())
    }

    /// [`count_reachable_states`](ProgramExplorer::count_reachable_states)
    /// under a budget; with a tripped guard the count covers only the
    /// states visited before the trip.
    #[must_use]
    pub fn count_reachable_states_governed(
        &self,
        opts: &ExploreOptions,
        guard: &BudgetGuard,
    ) -> usize {
        ModelExplorer::new(&ScModel::new(self)).count_reachable_states_governed(opts, guard)
    }

    // -----------------------------------------------------------------
    // Pre-interning reference engine and the encode/decode audit
    // -----------------------------------------------------------------

    /// [`behaviours`](ProgramExplorer::behaviours) on the
    /// **pre-interning reference engine**: uncompressed `PState`s
    /// (config clones, `BTreeMap` memory/holders) with SipHash-keyed
    /// memos and per-visit `tau_closure` re-runs, exactly as the engine
    /// worked before the compact encoding landed. Kept for differential
    /// testing and the E17 before/after benchmark; the production entry
    /// points never use it.
    #[must_use]
    pub fn behaviours_reference_governed(
        &self,
        opts: &ExploreOptions,
        guard: &BudgetGuard,
    ) -> Bounded<Behaviours> {
        let mut memo: HashMap<(PState, usize), Arc<Behaviours>> = HashMap::new();
        let mut truncated = false;
        let set = self.ref_suffixes(
            self.ref_initial(),
            self.fuel(opts),
            opts,
            &mut memo,
            &mut truncated,
            guard,
        );
        if truncated {
            guard.trip_action_bound();
        }
        Bounded {
            value: (*set).clone(),
            complete: !truncated,
        }
    }

    /// [`race_witness`](ProgramExplorer::race_witness) on the
    /// pre-interning reference engine (see
    /// [`behaviours_reference_governed`](ProgramExplorer::behaviours_reference_governed)).
    #[must_use]
    pub fn race_witness_reference_governed(
        &self,
        opts: &ExploreOptions,
        guard: &BudgetGuard,
    ) -> Option<RaceWitness> {
        let mut visited: HashSet<(PState, Prev)> = HashSet::new();
        let mut path = Vec::new();
        let mut truncated = false;
        self.ref_race_dfs(
            self.ref_initial(),
            None,
            0,
            opts,
            &mut visited,
            &mut path,
            &mut truncated,
            guard,
        )
        .then(|| RaceWitness {
            execution: Interleaving::from_events(path),
        })
    }

    fn ref_initial(&self) -> PState {
        PState {
            threads: vec![None; self.program.thread_count()],
            memory: BTreeMap::new(),
            holders: BTreeMap::new(),
        }
    }

    /// The reference-engine mirror of the intern-time τ-closure
    /// normalisation: successor configurations advance to their emit
    /// point (or the canonical empty config when they terminate) before
    /// being stored in a [`PState`], so both engines see identical
    /// suffix footprints and ast sizes. A silently diverging
    /// configuration is kept as-is; the next visit's closure flags it.
    fn ref_normalise(cfg: ThreadConfig, max_tau: usize) -> ThreadConfig {
        match cfg.tau_closure(&Domain::zero_to(0), max_tau) {
            Some((_, Step::Done)) => ThreadConfig::new(vec![]),
            Some((at_emit, _)) => at_emit,
            None => cfg,
        }
    }

    /// The old move computation: one `tau_closure` per thread per visit
    /// (two for reads), config clones in every move.
    fn ref_moves(&self, state: &PState, opts: &ExploreOptions, truncated: &mut bool) -> Vec<PMove> {
        let domain = Domain::zero_to(0);
        let mut out = Vec::new();
        for (k, slot) in state.threads.iter().enumerate() {
            let Some(cfg) = slot else {
                out.push(PMove {
                    thread: k,
                    action: Action::start(ThreadId::new(k as u32)),
                    next: Some(Self::ref_normalise(
                        ThreadConfig::new(
                            self.program
                                .thread(k)
                                .expect("thread index in range")
                                .to_vec(),
                        ),
                        opts.max_tau,
                    )),
                });
                continue;
            };
            let Some((_, step)) = cfg.tau_closure(&domain, opts.max_tau) else {
                *truncated = true;
                continue;
            };
            match step {
                Step::Done => {}
                Step::Tau(_) => unreachable!("tau_closure never returns Tau"),
                Step::Emit(successors) => {
                    let (first_action, _) = &successors[0];
                    match first_action {
                        Action::Read { loc, .. } => {
                            let v = state.memory.get(loc).copied().unwrap_or(Value::ZERO);
                            let at_emit = cfg
                                .tau_closure(&domain, opts.max_tau)
                                .expect("closure already succeeded")
                                .0;
                            let Step::Emit(succ2) = at_emit.step(&Domain::from_values([v])) else {
                                unreachable!("closure stopped at an emitting statement")
                            };
                            let (a, next) = succ2
                                .into_iter()
                                .find(|(a, _)| a.value() == Some(v))
                                .expect("domain contains v");
                            out.push(PMove {
                                thread: k,
                                action: a,
                                next: Some(Self::ref_normalise(next, opts.max_tau)),
                            });
                        }
                        Action::Lock(m) => {
                            let free = match state.holders.get(m) {
                                None => true,
                                Some(&h) => h == k,
                            };
                            if free {
                                let (a, next) = successors.into_iter().next().expect("one");
                                out.push(PMove {
                                    thread: k,
                                    action: a,
                                    next: Some(Self::ref_normalise(next, opts.max_tau)),
                                });
                            }
                        }
                        _ => {
                            let (a, next) = successors.into_iter().next().expect("one");
                            out.push(PMove {
                                thread: k,
                                action: a,
                                next: Some(Self::ref_normalise(next, opts.max_tau)),
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The reference-engine mirror of the SC reduction of
    /// [`ModelExplorer`]: the same
    /// dynamic invisibility predicate and ast-size proviso, computed
    /// directly from the uncompressed configurations (no memo), so the
    /// two engines select bit-identical ample sets.
    fn ref_por_moves(
        &self,
        state: &PState,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> (Vec<PMove>, ExpansionKind) {
        let moves = self.ref_moves(state, opts, truncated);
        if !opts.por {
            return (moves, ExpansionKind::Full);
        }
        // The suffix footprint of each thread's remaining code; a
        // not-yet-started thread contributes its whole body, a finished
        // one (normalised to the empty config by `ref_apply`) nothing.
        let metas: Vec<CfgMeta> = state
            .threads
            .iter()
            .enumerate()
            .map(|(j, slot)| match slot {
                // Footprints come from the τ-closed form, mirroring the
                // compact engine's normalised initial configurations.
                None => CfgMeta::of_code(
                    Self::ref_normalise(
                        ThreadConfig::new(
                            self.program
                                .thread(j)
                                .expect("thread index in range")
                                .to_vec(),
                        ),
                        opts.max_tau,
                    )
                    .code(),
                ),
                Some(cfg) if cfg.is_done() => CfgMeta::default(),
                Some(cfg) => CfgMeta::of_code(cfg.code()),
            })
            .collect();
        let mut saw_invisible = false;
        for mv in &moves {
            let invisible = match mv.action {
                Action::Start(_) => true,
                Action::Read { loc, .. } => {
                    !loc.is_volatile()
                        && metas
                            .iter()
                            .enumerate()
                            .all(|(j, m)| j == mv.thread || !m.writes.contains(&loc))
                }
                Action::Write { loc, .. } => {
                    !loc.is_volatile()
                        && metas
                            .iter()
                            .enumerate()
                            .all(|(j, m)| j == mv.thread || !m.accesses.contains(&loc))
                }
                Action::Lock(mon) | Action::Unlock(mon) => metas
                    .iter()
                    .enumerate()
                    .all(|(j, m)| j == mv.thread || !m.monitors.contains(&mon)),
                Action::External(_) => metas
                    .iter()
                    .enumerate()
                    .all(|(j, m)| j == mv.thread || !m.externals),
            };
            if !invisible {
                continue;
            }
            saw_invisible = true;
            let proviso = matches!(mv.action, Action::Start(_)) || {
                let next = mv.next.as_ref().expect("moves carry successor configs");
                let next_size = if next.is_done() {
                    0
                } else {
                    CfgMeta::of_code(next.code()).ast_size
                };
                next_size < metas[mv.thread].ast_size
            };
            if proviso {
                return (vec![mv.clone()], ExpansionKind::Ample);
            }
        }
        let kind = if saw_invisible {
            ExpansionKind::FullProviso
        } else {
            ExpansionKind::Full
        };
        (moves, kind)
    }

    /// The reference-engine mirror of the behaviour-phase move set:
    /// [`ref_por_moves`](ProgramExplorer::ref_por_moves) plus the same
    /// await stutter collapse as
    /// [`collapse_awaits`](Configs::collapse_awaits), computed
    /// directly on the uncompressed configurations (successor configs
    /// are already τ-normalised, so `next == current` is exactly the
    /// compact engine's `next_cfg == cur`). Only the behaviour suffix
    /// recursion uses this; the reference race search stays uncollapsed
    /// like the production one.
    fn ref_behaviour_moves(
        &self,
        state: &PState,
        opts: &ExploreOptions,
        truncated: &mut bool,
    ) -> Vec<PMove> {
        let (mut moves, _) = self.ref_por_moves(state, opts, truncated);
        if opts.awaits {
            moves.retain(|mv| {
                let Action::Read { loc, .. } = mv.action else {
                    return true;
                };
                let Some(cur) = state.threads[mv.thread].as_ref() else {
                    return true;
                };
                if !CfgMeta::of_code(cur.code()).awaits.contains(&loc) {
                    return true;
                }
                mv.next.as_ref().expect("moves carry successor configs") != cur
            });
        }
        moves
    }

    fn ref_apply(&self, state: &PState, mv: &PMove) -> PState {
        let mut next = state.clone();
        let cfg = mv.next.clone().expect("moves carry successor configs");
        let terminal = cfg.is_done();
        match mv.action {
            Action::Write { loc, value } => {
                next.memory.insert(loc, value);
            }
            Action::Lock(m) => {
                next.holders.insert(m, mv.thread);
            }
            Action::Unlock(m) if cfg.monitor_nesting(m) == 0 => {
                next.holders.remove(&m);
            }
            _ => {}
        }
        // Normalise terminated threads so states converge.
        next.threads[mv.thread] = Some(if terminal {
            ThreadConfig::new(vec![])
        } else {
            cfg
        });
        next
    }

    #[allow(clippy::too_many_arguments)]
    fn ref_suffixes(
        &self,
        state: PState,
        fuel: usize,
        opts: &ExploreOptions,
        memo: &mut HashMap<(PState, usize), Arc<Behaviours>>,
        truncated: &mut bool,
        guard: &BudgetGuard,
    ) -> Arc<Behaviours> {
        let key = (state, fuel);
        if let Some(r) = memo.get(&key) {
            return Arc::clone(r);
        }
        let (state, fuel) = (&key.0, key.1);
        let mut set = Behaviours::new();
        set.insert(Vec::new());
        if guard.should_stop() {
            *truncated = true;
            return Arc::new(set);
        }
        guard.note_state();
        let moves = self.ref_behaviour_moves(state, opts, truncated);
        if fuel == 0 {
            if !moves.is_empty() {
                *truncated = true;
            }
        } else {
            let next_fuel = if fuel == usize::MAX {
                usize::MAX
            } else {
                fuel - 1
            };
            for mv in moves {
                let tail = self.ref_suffixes(
                    self.ref_apply(state, &mv),
                    next_fuel,
                    opts,
                    memo,
                    truncated,
                    guard,
                );
                if let Action::External(v) = mv.action {
                    for suffix in tail.iter() {
                        let mut b = Vec::with_capacity(suffix.len() + 1);
                        b.push(v);
                        b.extend_from_slice(suffix);
                        set.insert(b);
                    }
                } else {
                    set.extend(tail.iter().cloned());
                }
            }
        }
        let rc = Arc::new(set);
        memo.insert(key, Arc::clone(&rc));
        rc
    }

    #[allow(clippy::too_many_arguments)]
    fn ref_race_dfs(
        &self,
        state: PState,
        prev: Prev,
        prev_at: usize,
        opts: &ExploreOptions,
        visited: &mut HashSet<(PState, Prev)>,
        path: &mut Vec<Event>,
        truncated: &mut bool,
        guard: &BudgetGuard,
    ) -> bool {
        if guard.should_stop() || !visited.insert((state.clone(), prev)) {
            return false;
        }
        guard.note_state();
        let (moves, kind) = self.ref_por_moves(&state, opts, truncated);
        for mv in moves {
            let tid = ThreadId::new(mv.thread as u32);
            if let Some((pk, pl, pw)) = prev {
                if pk != mv.thread
                    && mv.action.is_access_to(pl)
                    && !pl.is_volatile()
                    && (pw || mv.action.is_write())
                {
                    crate::model::reorder_carried_witness(path, prev_at, tid);
                    path.push(Event::new(tid, mv.action));
                    return true;
                }
            }
            // Check-before-carry: an ample move was race-checked against
            // the tracked access above (a dynamically invisible move can
            // still race with a *past* access), and when no race fires
            // the tracker is carried through unchanged — overwriting it
            // would mask the pair on every reduced path.
            let (next_prev, next_at) = if kind.is_ample() {
                (prev, prev_at)
            } else {
                match mv.action {
                    Action::Read { loc, .. } if !loc.is_volatile() => {
                        (Some((mv.thread, loc, false)), path.len() + 1)
                    }
                    Action::Write { loc, .. } if !loc.is_volatile() => {
                        (Some((mv.thread, loc, true)), path.len() + 1)
                    }
                    _ => (None, 0),
                }
            };
            path.push(Event::new(tid, mv.action));
            if self.ref_race_dfs(
                self.ref_apply(&state, &mv),
                next_prev,
                next_at,
                opts,
                visited,
                path,
                truncated,
                guard,
            ) {
                return true;
            }
            path.pop();
        }
        false
    }

    /// Encodes a reference state into the compact word buffer (its
    /// configs are already normalised by `ref_apply`).
    fn encode_ref(&self, cache: &mut CfgCache, state: &PState) -> CState {
        let mut words = vec![0u32; self.word_count()].into_boxed_slice();
        for (k, slot) in state.threads.iter().enumerate() {
            words[k] = match slot {
                None => NOT_STARTED,
                Some(cfg) => cache.cfgs.intern_ref(cfg).0,
            };
        }
        for (&loc, &v) in &state.memory {
            let i = self.loc_index(loc);
            words[self.mem_base() + i] = v.get();
            words[self.bit_base() + i / 32] |= 1 << (i % 32);
        }
        for (&m, &holder) in &state.holders {
            words[self.holder_slot(m)] = holder as u32 + 1;
        }
        CState { words }
    }

    /// Decodes a compact state back into the reference representation
    /// (the written bitmap recovers which memory cells exist).
    fn decode(&self, cache: &CfgCache, state: &CState) -> PState {
        let threads = (0..self.program.thread_count())
            .map(|k| match state.words[k] {
                NOT_STARTED => None,
                id => Some(cache.cfgs.get(id).clone()),
            })
            .collect();
        let mut memory = BTreeMap::new();
        for (i, &loc) in self.locs.iter().enumerate() {
            if state.words[self.bit_base() + i / 32] & (1 << (i % 32)) != 0 {
                memory.insert(loc, Value::new(state.words[self.mem_base() + i]));
            }
        }
        let mut holders = BTreeMap::new();
        for &m in &self.monitors {
            let h = state.words[self.holder_slot(m)];
            if h != 0 {
                holders.insert(m, h as usize - 1);
            }
        }
        PState {
            threads,
            memory,
            holders,
        }
    }

    /// Self-audit of the compact encoding: walks the (unreduced)
    /// reachable state space in lockstep on the compact and reference
    /// representations, checking that encode→decode round-trips on every
    /// state, that interned-id equality coincides with structural
    /// `PState` equality, and that both engines produce the same move
    /// lists. `max_states` caps the walk (flagged in
    /// [`InternAudit::capped`]). Test support for the property suite.
    #[doc(hidden)]
    #[must_use]
    pub fn audit_intern(&self, opts: &ExploreOptions, max_states: usize) -> InternAudit {
        let mut interner: StateInterner<CState> = StateInterner::new();
        let mut rmap: HashMap<PState, u32> = HashMap::new();
        let mut stack: Vec<(CState, PState)> = vec![(self.initial_compact(), self.ref_initial())];
        let mut audit = InternAudit {
            states: 0,
            roundtrips: true,
            bijective: true,
            capped: false,
        };
        let mut truncated = false;
        let sc = ScModel::new(self);
        let mx = ModelExplorer::new(&sc);
        while let Some((cs, rs)) = stack.pop() {
            let (cid, fresh) = interner.intern_ref(&cs);
            let ref_fresh = !rmap.contains_key(&rs);
            if fresh != ref_fresh {
                // One side thinks the state is new and the other does
                // not: the encoding conflated or split states.
                audit.bijective = false;
            }
            if !ref_fresh {
                if rmap[&rs] != cid {
                    audit.bijective = false;
                }
                continue;
            }
            rmap.insert(rs.clone(), cid);
            if !fresh {
                continue;
            }
            audit.states += 1;
            let mut cfgs = self.configs(opts.max_tau);
            if self.encode_ref(&mut cfgs.cache, &rs) != cs || self.decode(&cfgs.cache, &cs) != rs {
                audit.roundtrips = false;
            }
            if audit.states >= max_states {
                audit.capped = true;
                break;
            }
            drop(cfgs);
            let cmoves = mx.moves(&cs, opts, &mut truncated);
            let rmoves = self.ref_moves(&rs, opts, &mut truncated);
            let agree = cmoves.len() == rmoves.len()
                && cmoves
                    .iter()
                    .zip(&rmoves)
                    .all(|(a, b)| a.thread == b.thread && a.label.action() == Some(b.action));
            if !agree {
                audit.bijective = false;
                continue;
            }
            for (cm, rm) in cmoves.into_iter().zip(&rmoves) {
                stack.push((cm.next, self.ref_apply(&rs, rm)));
            }
        }
        audit
    }
}

/// Records every location statement `s` (of thread `k`) can read or
/// write into the access-universe map. Conditions only read registers,
/// so statements' `loc` fields are the complete memory footprint; the
/// walk over-approximates (dead branches count), which is the safe
/// direction.
fn collect_accesses(s: &crate::ast::Stmt, accessed: &mut std::collections::BTreeSet<Loc>) {
    match s {
        crate::ast::Stmt::Store { loc, .. } | crate::ast::Stmt::Load { loc, .. } => {
            accessed.insert(*loc);
        }
        crate::ast::Stmt::Block(b) => {
            for s in b {
                collect_accesses(s, accessed);
            }
        }
        crate::ast::Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_accesses(then_branch, accessed);
            collect_accesses(else_branch, accessed);
        }
        crate::ast::Stmt::While { body, .. } => {
            collect_accesses(body, accessed);
        }
        _ => {}
    }
}

/// Records every monitor statement `s` can lock or unlock (the static
/// monitor universe of the compact holder table).
fn collect_monitors(s: &crate::ast::Stmt, out: &mut std::collections::BTreeSet<Monitor>) {
    match s {
        crate::ast::Stmt::Lock(m) | crate::ast::Stmt::Unlock(m) => {
            out.insert(*m);
        }
        crate::ast::Stmt::Block(b) => {
            for s in b {
                collect_monitors(s, out);
            }
        }
        crate::ast::Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_monitors(then_branch, out);
            collect_monitors(else_branch, out);
        }
        crate::ast::Stmt::While { body, .. } => {
            collect_monitors(body, out);
        }
        _ => {}
    }
}

/// Does the program contain a `while` loop (anywhere)? Loop-free
/// programs admit exact, fuel-free exploration (see
/// [`ProgramExplorer::fuel`]).
fn program_has_loops(p: &Program) -> bool {
    fn stmt_has_loop(s: &crate::ast::Stmt) -> bool {
        match s {
            crate::ast::Stmt::While { .. } => true,
            crate::ast::Stmt::Block(b) => b.iter().any(stmt_has_loop),
            crate::ast::Stmt::If {
                then_branch,
                else_branch,
                ..
            } => stmt_has_loop(then_branch) || stmt_has_loop(else_branch),
            _ => false,
        }
    }
    p.threads().iter().flatten().any(stmt_has_loop)
}

/// Is every `while` loop of the program await-shaped (body = one shared
/// load plus `skip`/block structure)? When
/// true and the await reduction is on, the behaviour phase runs without
/// an action bound: every statement outside a loop is consumed
/// permanently, await bodies write nothing, and the collapse removes
/// the only self-loops, so the collapsed state graph is acyclic (see
/// [`ProgramExplorer::fuel`]).
#[must_use]
pub fn program_loops_are_awaits(p: &Program) -> bool {
    fn stmt_ok(s: &crate::ast::Stmt) -> bool {
        match s {
            crate::ast::Stmt::While { body, .. } => await_watch(body).is_some(),
            crate::ast::Stmt::Block(b) => b.iter().all(stmt_ok),
            crate::ast::Stmt::If {
                then_branch,
                else_branch,
                ..
            } => stmt_ok(then_branch) && stmt_ok(else_branch),
            _ => true,
        }
    }
    p.threads().iter().flatten().all(stmt_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::semantics::{extract_traceset, ExtractOptions};
    use transafety_interleaving::Explorer;

    fn behaviours_via_tracesets(src: &str, domain: &Domain) -> Behaviours {
        let parsed = parse_program(src).unwrap();
        let e = extract_traceset(&parsed.program, domain, &ExtractOptions::default());
        assert!(!e.truncated, "traceset extraction truncated");
        Explorer::new(&e.traceset).behaviours()
    }

    fn behaviours_direct(src: &str) -> Behaviours {
        let parsed = parse_program(src).unwrap();
        let b = ProgramExplorer::new(&parsed.program).behaviours(&ExploreOptions::default());
        assert!(b.complete, "direct exploration truncated");
        b.value
    }

    #[test]
    fn cross_validation_fig2_original() {
        let src = "r2 := x; y := r2; || r1 := y; x := 1; print r1;";
        let d = Domain::zero_to(1);
        assert_eq!(behaviours_via_tracesets(src, &d), behaviours_direct(src));
    }

    #[test]
    fn cross_validation_fig2_transformed() {
        let src = "r2 := x; y := r2; || x := 1; r1 := y; print r1;";
        let d = Domain::zero_to(1);
        let b = behaviours_direct(src);
        assert_eq!(behaviours_via_tracesets(src, &d), b);
        assert!(b.contains(&vec![Value::new(1)]), "transformed can print 1");
    }

    #[test]
    fn cross_validation_with_locks() {
        let src = "lock m; x := 1; r0 := x; print r0; unlock m; \
                   || lock m; x := 2; r1 := x; print r1; unlock m;";
        let d = Domain::zero_to(2);
        let direct = behaviours_direct(src);
        assert_eq!(behaviours_via_tracesets(src, &d), direct);
        assert!(direct.contains(&vec![Value::new(1), Value::new(2)]));
        assert!(direct.contains(&vec![Value::new(2), Value::new(1)]));
        assert!(!direct.contains(&vec![Value::new(2), Value::new(2)]));
    }

    #[test]
    fn cross_validation_with_volatiles() {
        let src = "volatile v; v := 1; || r0 := v; print r0;";
        let d = Domain::zero_to(1);
        let direct = behaviours_direct(src);
        assert_eq!(behaviours_via_tracesets(src, &d), direct);
        let parsed = parse_program(src).unwrap();
        assert!(ProgramExplorer::new(&parsed.program).is_data_race_free(&ExploreOptions::default()));
    }

    #[test]
    fn race_witness_agrees_with_traceset_explorer() {
        let src = "x := 1; || r0 := x; print r0;";
        let parsed = parse_program(src).unwrap();
        let direct = ProgramExplorer::new(&parsed.program);
        let w = direct
            .race_witness(&ExploreOptions::default())
            .expect("racy");
        let (a, b) = w.pair();
        assert!(a.action().conflicts_with(&b.action()));
        // traceset route agrees
        let e = extract_traceset(
            &parsed.program,
            &Domain::zero_to(1),
            &ExtractOptions::default(),
        );
        assert!(!Explorer::new(&e.traceset).is_data_race_free());
    }

    #[test]
    fn drf_by_locking_both_routes() {
        let src = "lock m; x := 1; unlock m; || lock m; r0 := x; unlock m; print r0;";
        let parsed = parse_program(src).unwrap();
        assert!(ProgramExplorer::new(&parsed.program).is_data_race_free(&ExploreOptions::default()));
        let e = extract_traceset(
            &parsed.program,
            &Domain::zero_to(1),
            &ExtractOptions::default(),
        );
        assert!(Explorer::new(&e.traceset).is_data_race_free());
    }

    #[test]
    fn intro_example_cannot_print_one_and_is_fixed_by_volatiles() {
        let intro = |vols: &str| {
            format!(
                "{vols}
                 data := 1;
                 if (requestReady == 1) {{ data := 2; responseReady := 1; }}
                 ||
                 requestReady := 1;
                 if (responseReady == 1) print data;"
            )
        };
        // racy version: cannot print 1 under SC (the §1 claim)
        let b = behaviours_direct(&intro(""));
        assert!(!b.contains(&vec![Value::new(1)]));
        assert!(b.contains(&vec![Value::new(2)]) || b.contains(&vec![]));
        // with volatile flags the program is DRF (§3 end)
        let src = intro("volatile requestReady, responseReady;");
        let parsed = parse_program(&src).unwrap();
        assert!(ProgramExplorer::new(&parsed.program).is_data_race_free(&ExploreOptions::default()));
        // without them it is racy (data is written by T0 and read by T1)
        let parsed_racy = parse_program(&intro("")).unwrap();
        assert!(!ProgramExplorer::new(&parsed_racy.program)
            .is_data_race_free(&ExploreOptions::default()));
    }

    #[test]
    fn spin_loop_state_space_is_finite() {
        // T0 signals; T1 spins until it sees the flag. The race search
        // must terminate despite the loop (visited-state memoisation).
        let src = "flag := 1; || while (flag != 1) skip; print 1;";
        let parsed = parse_program(src).unwrap();
        let ex = ProgramExplorer::new(&parsed.program);
        assert!(
            ex.race_witness(&ExploreOptions::default()).is_some(),
            "flag is racy"
        );
        assert!(ex.count_reachable_states(&ExploreOptions::default()) > 0);
    }

    #[test]
    fn behaviour_fuel_reports_truncation() {
        let src = "while (r0 == r0) print 1;";
        let parsed = parse_program(src).unwrap();
        let b = ProgramExplorer::new(&parsed.program).behaviours(&ExploreOptions {
            max_actions: 4,
            max_tau: 100,
            ..ExploreOptions::default()
        });
        assert!(!b.complete);
        assert!(b.value.contains(&vec![Value::new(1); 3]));
    }

    #[test]
    fn silent_divergence_truncates() {
        let src = "while (r0 == r0) skip;";
        let parsed = parse_program(src).unwrap();
        let b = ProgramExplorer::new(&parsed.program).behaviours(&ExploreOptions {
            max_actions: 4,
            max_tau: 50,
            ..ExploreOptions::default()
        });
        assert!(!b.complete);
        assert_eq!(b.value.len(), 1, "only the empty behaviour");
    }

    #[test]
    fn por_agrees_with_full_engine_on_corpus() {
        let corpus = [
            "r2 := x; y := r2; || r1 := y; x := 1; print r1;",
            "flag := 1; || while (flag != 1) skip; print 1;",
            "lock m; x := 1; unlock m; || lock m; r0 := x; unlock m; print r0;",
            "volatile v; v := 1; || r0 := v; print r0;",
            "a := 1; r0 := a; x := r0; || b := 1; r1 := b; x := r1; print r1;",
        ];
        let on = ExploreOptions::default();
        let off = ExploreOptions {
            por: false,
            ..ExploreOptions::default()
        };
        for src in corpus {
            let parsed = parse_program(src).unwrap();
            let ex = ProgramExplorer::new(&parsed.program);
            assert_eq!(ex.behaviours(&on), ex.behaviours(&off), "{src}");
            assert_eq!(
                ex.race_witness(&on).is_some(),
                ex.race_witness(&off).is_some(),
                "{src}"
            );
        }
    }

    #[test]
    fn por_prunes_states_on_loop_free_private_work() {
        use transafety_interleaving::{Budget, CancelToken};
        // Each thread does four actions on a thread-private location
        // before touching the lock-protected shared cell: the private
        // prefixes commute, so POR should collapse their shuffles.
        let src = "a := 1; r0 := a; a := 2; r0 := a; lock m; x := 1; unlock m; \
                   || b := 1; r1 := b; b := 2; r1 := b; lock m; r2 := x; unlock m; print r2;";
        let parsed = parse_program(src).unwrap();
        let ex = ProgramExplorer::new(&parsed.program);
        let on = ExploreOptions::default();
        let off = ExploreOptions {
            por: false,
            ..ExploreOptions::default()
        };
        let reduced = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
        let full = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
        let b_on = ex.behaviours_governed(&on, &reduced);
        let b_off = ex.behaviours_governed(&off, &full);
        assert_eq!(b_on, b_off);
        assert!(
            reduced.states() * 2 <= full.states(),
            "POR explored {} states vs {} unreduced",
            reduced.states(),
            full.states()
        );
    }

    #[test]
    fn dpor_stays_enabled_on_loopy_programs() {
        // A spinning thread re-enters the same configuration, so a
        // naive invisible-singleton ample set could starve its sibling
        // forever (the ignoring problem). The ast-size proviso rejects
        // the non-shrinking spin step, keeping the reduction sound with
        // POR *enabled* — the old engine disabled itself on any `while`.
        let src = "flag := 1; || while (flag != 1) skip; print 1;";
        let parsed = parse_program(src).unwrap();
        let ex = ProgramExplorer::new(&parsed.program);
        let on = ExploreOptions::default();
        let off = ExploreOptions {
            por: false,
            ..ExploreOptions::default()
        };
        assert!(ex.race_witness(&on).is_some(), "flag race found reduced");
        assert!(ex.race_witness(&off).is_some(), "flag race found unreduced");
        assert!(ex.behaviours(&on).value.contains(&vec![Value::new(1)]));
        assert_eq!(ex.behaviours(&on), ex.behaviours(&off));
    }

    #[test]
    fn race_straddled_by_private_tails_is_found() {
        // Regression: each racing access is immediately followed by its
        // own thread's private (ample) work. The static reduction let
        // those ample moves overwrite the last-access tracker, masking
        // the x race on *every* reduced path in both access orders —
        // check-before-carry keeps the pair visible.
        let src = "x := 1; a := 1; || r0 := x; b := 1;";
        let parsed = parse_program(src).unwrap();
        let ex = ProgramExplorer::new(&parsed.program);
        let on = ExploreOptions::default();
        let off = ExploreOptions {
            por: false,
            ..ExploreOptions::default()
        };
        assert!(ex.race_witness(&off).is_some(), "x is racy unreduced");
        let w = ex.race_witness(&on).expect("reduction must find the race");
        let (a, b) = w.pair();
        assert!(a.action().conflicts_with(&b.action()));
        assert_ne!(a.thread(), b.thread());
    }

    #[test]
    fn compact_engine_matches_reference_and_audits_clean() {
        use transafety_interleaving::{Budget, CancelToken};
        let corpus = [
            "r2 := x; y := r2; || r1 := y; x := 1; print r1;",
            "flag := 1; || while (flag != 1) skip; print 1;",
            "lock m; x := 1; unlock m; || lock m; r0 := x; unlock m; print r0;",
            "volatile v; v := 1; || r0 := v; print r0;",
            "a := 1; r0 := a; x := r0; || b := 1; r1 := b; x := r1; print r1;",
        ];
        for src in corpus {
            let parsed = parse_program(src).unwrap();
            let ex = ProgramExplorer::new(&parsed.program);
            for por in [true, false] {
                let opts = ExploreOptions {
                    por,
                    ..ExploreOptions::default()
                };
                let g_new = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
                let g_ref = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
                let b_new = ex.behaviours_governed(&opts, &g_new);
                let b_ref = ex.behaviours_reference_governed(&opts, &g_ref);
                assert_eq!(b_new, b_ref, "{src} por={por}");
                assert_eq!(
                    g_new.states(),
                    g_ref.states(),
                    "state-visit counts differ: {src} por={por}"
                );
                let w_new = ex.race_witness_governed(&opts, &BudgetGuard::unlimited());
                let w_ref = ex.race_witness_reference_governed(&opts, &BudgetGuard::unlimited());
                match (&w_new, &w_ref) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.execution, b.execution, "{src} por={por}");
                    }
                    (None, None) => {}
                    _ => panic!("race verdicts differ: {src} por={por}"),
                }
            }
            let audit = ex.audit_intern(&ExploreOptions::default(), 100_000);
            assert!(audit.states > 1, "{src}");
            assert!(audit.roundtrips, "encode/decode roundtrip failed: {src}");
            assert!(audit.bijective, "id/structural equality diverged: {src}");
            assert!(!audit.capped, "{src}");
        }
    }
}

#[cfg(test)]
mod witness_tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn behaviour_witness_for_fig2_transformed() {
        let p = parse_program("r2 := x; y := r2; || x := 1; r1 := y; print r1;")
            .unwrap()
            .program;
        let ex = ProgramExplorer::new(&p);
        let opts = ExploreOptions::default();
        let w = ex
            .execution_with_behaviour(&[Value::new(1)], &opts)
            .expect("the transformed Fig. 2 can print 1");
        assert_eq!(
            w.behaviour(),
            vec![Value::new(1)],
            "the witness really prints 1: {w}"
        );
        assert!(w.is_sequentially_consistent());
        // and the impossible behaviour has no witness
        assert!(ex
            .execution_with_behaviour(&[Value::new(2)], &opts)
            .is_none());
    }
}
