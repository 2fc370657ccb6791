//! The four workloads: their inputs, settings and timed loops.
//!
//! Every workload runs in this one process with one client thread (the
//! set-up probes run in child processes while the load pauses).
//! The check and rewrite workloads are closed loops over a seeded,
//! shuffled sample of their pool, cycled until the run's time is up;
//! `serve-mixed` drives an in-process server (see [`crate::serve_load`]).
//! Budgets are state caps only, never deadlines, so every answer is a
//! function of the input alone.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use transafety::litmus::Rng;
use transafety::{Analysis, MemoryModelKind};

use crate::data::{self, Case, CaseKind, CheckTruth, Quota};
use crate::ops::{self, Answer, CheckAnswer};
use crate::stats::{self, Windowed};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CheckSmall,
    CheckLarge,
    ServeMixed,
    RewriteValidate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CheckSmall,
        Workload::CheckLarge,
        Workload::ServeMixed,
        Workload::RewriteValidate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CheckSmall => "check-small",
            Workload::CheckLarge => "check-large",
            Workload::ServeMixed => "serve-mixed",
            Workload::RewriteValidate => "rewrite-validate",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }

    /// The pool file the workload draws from (`serve-mixed` reuses the
    /// `check-small` inputs).
    pub fn pool(self) -> &'static str {
        match self {
            Workload::CheckSmall | Workload::ServeMixed => "check-small",
            Workload::CheckLarge => "check-large",
            Workload::RewriteValidate => "rewrite-validate",
        }
    }

    /// Cases drawn per group for one run. Fixed inputs (the litmus
    /// corpus, the `.tsl` programs, the seeded unsafe cases) are always
    /// included; generated ones are sampled.
    pub fn quota(self, smoke: bool) -> Quota {
        let n = |full: usize, small: usize| Some(if smoke { small } else { full });
        let n_all = |small: usize| if smoke { Some(small) } else { None };
        let groups: Vec<(&'static str, Option<usize>)> = match self {
            Workload::CheckSmall | Workload::ServeMixed => vec![
                ("gen:default", n(400, 6)),
                ("gen:drf", n(400, 6)),
                ("gen:volatiles", n(400, 6)),
                ("gen:loops", n(400, 6)),
                ("gen:awaits", n(400, 6)),
                ("corpus", None),
                ("tsl", n_all(2)),
            ],
            // Every run takes the whole pool, in the seed's order: with
            // ops of 1–100 ms, a sample's largest programs would set
            // the run's peak memory and tail latency.
            Workload::CheckLarge => vec![
                ("gen:3x4-racy", n_all(1)),
                ("gen:3x4-locked", n_all(1)),
                ("gen:3x5-racy", n_all(1)),
                ("gen:4x3-locked", n_all(1)),
                ("tsl", n_all(0)),
            ],
            Workload::RewriteValidate => vec![
                ("fuzz", n(1000, 40)),
                ("seeded", None),
                // The classify cases are a fixed set: every run takes
                // all of them, so the few long await cases weigh the
                // same in every run.
                ("classify:default", n_all(1)),
                ("classify:drf", n_all(1)),
                ("classify:volatiles", n_all(1)),
                ("classify:loops", n_all(1)),
                // Each await classify takes ~0.3 s in release builds:
                // too slow for a debug smoke run.
                ("classify:awaits", n_all(0)),
            ],
        };
        groups.into_iter().collect()
    }

    /// Ops per latency window (see [`Windowed`]). `check-large` takes
    /// its quantiles over the whole run: its ops' costs span two orders
    /// of magnitude, and a window of 250 of them holds only two or
    /// three of the pool's slowest, so each window's p99 turned on how
    /// many of those fell into it.
    pub fn latency_window(self) -> usize {
        match self {
            Workload::CheckLarge => usize::MAX,
            _ => Windowed::WINDOW,
        }
    }

    /// The analysis settings of the check ops.
    pub fn analysis(self, model: MemoryModelKind) -> Analysis {
        match self {
            Workload::CheckSmall => Analysis::new().model(model).jobs(1).max_states(200_000),
            // jobs 2: the `drfcheck` default on a 2-core host.
            Workload::CheckLarge => Analysis::new().model(model).jobs(2).max_states(2_000_000),
            Workload::ServeMixed => Analysis::new().model(model).jobs(2).max_states(200_000),
            Workload::RewriteValidate => Analysis::new().model(model).jobs(1),
        }
    }
}

/// Expected-divergence witnesses one run minimises (`fuzz::run_soak`'s
/// cap).
pub const MAX_WITNESSES: usize = 8;

/// In `rewrite-validate`, every this-many-th op is a classify op.
const CLASSIFY_EVERY: usize = 11;

/// What one timed run measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub errors: u64,
    pub decided: u64,
    /// Per-op latency in ms.
    pub latency: Windowed,
    pub wall_s: f64,
    /// Ops per second; for `serve-mixed`, the median over windows of
    /// requests (see [`crate::serve_load`]).
    pub throughput: f64,
    pub cpu_ms_per_op: f64,
    pub slo_attainment: Option<f64>,
    pub generator_lag_p99_ms: f64,
    /// The first few mismatches, for the report.
    pub mismatches: Vec<String>,
    /// Per case group: ops run and their summed time in ms.
    pub by_group: BTreeMap<String, (u64, f64)>,
    /// Per op in run order, its answer and latency in ms: kept only for
    /// a traced run, which replays them, so that an untraced run's
    /// memory does not grow with its throughput.
    pub answers: Vec<(Answer, f64)>,
}

impl Measured {
    pub fn record_failure(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 10 {
            self.mismatches.push(what);
        }
    }
}

/// Work a timed run makes room for every `every_s` seconds of its timed
/// part, off its clock: the set-up probes.
pub struct Breaks {
    pub every_s: f64,
    pub run: Box<dyn FnMut() + Send>,
}

/// One op: a case and, for a check case, which of its models to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub case: usize,
    pub slot: usize,
}

/// The inputs of one run, built by [`setup`].
pub struct Prepared {
    pub cases: Vec<Case>,
    /// The ops in run order; runs cycle through them.
    pub ops: Vec<Op>,
    /// `rewrite-validate`'s classify ops, cycled on their own: every
    /// `CLASSIFY_EVERY`-th op of the run is the next of them, so each
    /// classify case runs equally often whatever the run's length.
    pub classify: Vec<Op>,
}

impl Prepared {
    /// The `n`-th op of the run.
    pub fn op(&self, n: usize) -> Op {
        if self.classify.is_empty() {
            return self.ops[n % self.ops.len()];
        }
        let (group, at) = (n / CLASSIFY_EVERY, n % CLASSIFY_EVERY);
        if at == CLASSIFY_EVERY - 1 {
            self.classify[group % self.classify.len()]
        } else {
            self.ops[(group * (CLASSIFY_EVERY - 1) + at) % self.ops.len()]
        }
    }

    /// Ops in one pass: enough for every op to run at least once.
    pub fn pass_len(&self) -> usize {
        if self.classify.is_empty() {
            return self.ops.len();
        }
        let groups = self
            .ops
            .len()
            .div_ceil(CLASSIFY_EVERY - 1)
            .max(self.classify.len());
        groups * CLASSIFY_EVERY
    }

    pub fn case(&self, op: Op) -> &Case {
        &self.cases[op.case]
    }
}

/// Loads the pool, draws the seed's sample and orders its ops.
pub fn setup(
    workload: Workload,
    data_dir: &Path,
    seed: u64,
    smoke: bool,
) -> Result<Prepared, String> {
    let cases = data::load(&data::pool_path(data_dir, workload.pool()))?;
    let mut rng = Rng::seed_from_u64(seed ^ 0xD5F0_BE4C_0000_0001);
    let mut ops: Vec<Op> = data::sample(&cases, &workload.quota(smoke), &mut rng)
        .into_iter()
        .flat_map(|case| (0..cases[case].kind.ops()).map(move |slot| Op { case, slot }))
        .collect();
    data::shuffle(&mut ops, &mut rng);
    let (classify, ops): (Vec<Op>, Vec<Op>) = ops
        .into_iter()
        .partition(|op| matches!(cases[op.case].kind, CaseKind::Classify { .. }));
    if ops.is_empty() {
        return Err(format!("{}: the sample is empty", workload.name()));
    }
    Ok(Prepared {
        cases,
        ops,
        classify,
    })
}

/// The model and reference answer of a check op.
pub fn check_run(case: &Case, slot: usize) -> Option<(&str, MemoryModelKind, &CheckTruth)> {
    match &case.kind {
        CaseKind::Check { source, runs } => runs.get(slot).map(|(m, t)| (source.as_str(), *m, t)),
        _ => None,
    }
}

/// Runs one op, traced when `tr` is enabled, returning its answer or an
/// error message.
pub fn run_op(
    workload: Workload,
    case: &Case,
    slot: usize,
    witness_slots: &mut usize,
    tr: &mut Tracer,
) -> Result<Answer, String> {
    match &case.kind {
        CaseKind::Check { .. } => {
            let (source, model, _) = check_run(case, slot)
                .ok_or_else(|| format!("{}: no model in slot {slot}", case.id))?;
            let analysis = workload.analysis(model);
            if tr.is_enabled() {
                ops::traced_check(source, &analysis, tr).map(Answer::Check)
            } else {
                ops::check(source, &analysis).map(|r| Answer::Check(CheckAnswer::from_report(&r)))
            }
        }
        CaseKind::Fuzz {
            model,
            source,
            pipeline,
            ..
        } => ops::fuzz(source, pipeline, *model, witness_slots, tr).map(Answer::Outcome),
        CaseKind::Seeded { .. } => ops::seeded(&case.id, tr).map(Answer::Outcome),
        CaseKind::Classify { source, pick, .. } => if tr.is_enabled() {
            ops::traced_classify(source, *pick, tr)
        } else {
            ops::classify(source, *pick)
        }
        .map(Answer::Outcome),
    }
}

/// Checks an answer against the case's blessed one.
pub fn verify(case: &Case, slot: usize, answer: &Answer) -> Result<(), String> {
    match (&case.kind, answer) {
        (CaseKind::Check { .. }, Answer::Check(a)) => {
            let (_, _, truth) = check_run(case, slot).ok_or("no such model slot")?;
            ops::check_consistent(truth, a)
        }
        (CaseKind::Fuzz { outcome, .. }, Answer::Outcome(got))
        | (CaseKind::Seeded { outcome, .. }, Answer::Outcome(got)) => {
            ops::outcome_consistent(outcome, got)
        }
        (CaseKind::Classify { expected, .. }, Answer::Outcome(got)) => {
            ops::outcome_consistent(expected, got)
        }
        _ => Err("answer of the wrong kind".into()),
    }
}

pub fn describe(case: &Case, slot: usize) -> String {
    let model = match &case.kind {
        CaseKind::Check { runs, .. } => runs.get(slot).map_or("?", |(m, _)| m.as_str()),
        CaseKind::Fuzz { model, .. } | CaseKind::Seeded { model, .. } => model.as_str(),
        CaseKind::Classify { .. } => "sc",
    };
    format!("{} {} under {model}", case.group, case.id)
}

/// The untraced closed loop: cycle through the op list until `seconds`
/// have passed, or (`None`) run it exactly once. `keep_answers` keeps
/// every op's answer for a traced replay.
pub fn closed_loop(
    workload: Workload,
    prep: &Prepared,
    seconds: Option<f64>,
    keep_answers: bool,
    mut breaks: Option<Breaks>,
) -> Measured {
    let mut m = Measured {
        latency: Windowed::new(workload.latency_window()),
        ..Measured::default()
    };
    let mut witness_slots = MAX_WITNESSES;
    let mut untraced = Tracer::disabled();
    let cpu0 = stats::process_cpu_seconds();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let timed = |paused: Duration| start.elapsed().saturating_sub(paused).as_secs_f64();
    let mut next_break = breaks.as_ref().map_or(f64::INFINITY, |b| b.every_s);
    let mut n = 0usize;
    loop {
        let more = match seconds {
            Some(s) => timed(paused) < s,
            None => n < prep.pass_len(),
        };
        if !more {
            break;
        }
        if let Some(b) = breaks.as_mut() {
            if timed(paused) >= next_break {
                let t0 = Instant::now();
                (b.run)();
                paused += t0.elapsed();
                next_break += b.every_s;
            }
        }
        let Op { case, slot } = prep.op(n);
        let case = &prep.cases[case];
        let t0 = Instant::now();
        let answer = run_op(workload, case, slot, &mut witness_slots, &mut untraced);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        m.attempted += 1;
        m.latency.push(ms);
        let answer = match answer {
            Ok(a) => {
                if let Err(e) = verify(case, slot, &a) {
                    m.record_failure(format!("{}: {e}", describe(case, slot)));
                }
                if a.decided() {
                    m.decided += 1;
                }
                a
            }
            Err(e) => {
                m.errors += 1;
                m.record_failure(format!("{}: error: {e}", describe(case, slot)));
                Answer::Outcome(format!("error: {e}"))
            }
        };
        if keep_answers {
            m.answers.push((answer, ms));
        }
        if let Some(g) = m.by_group.get_mut(&case.group) {
            *g = (g.0 + 1, g.1 + ms);
        } else {
            m.by_group.insert(case.group.clone(), (1, ms));
        }
        n += 1;
    }
    m.wall_s = timed(paused);
    m.throughput = m.attempted as f64 / m.wall_s;
    m.cpu_ms_per_op = (stats::process_cpu_seconds() - cpu0) * 1e3 / m.attempted.max(1) as f64;
    m
}

/// The traced replay of an untraced run's ops, in the same order,
/// until they are all replayed or `seconds` (if given) have passed.
/// Returns the tracer, the number of ops replayed and how many answers
/// differed.
pub fn traced_replay(
    workload: Workload,
    prep: &Prepared,
    untraced: &Measured,
    seconds: Option<f64>,
) -> (Tracer, usize, u64) {
    let mut tr = Tracer::new();
    let mut witness_slots = MAX_WITNESSES;
    let start = Instant::now();
    let mut replayed = 0;
    let mut mismatches = 0;
    for (n, (want, _)) in untraced.answers.iter().enumerate() {
        if seconds.is_some_and(|s| start.elapsed().as_secs_f64() >= s) {
            break;
        }
        tr.begin_op(n as u64);
        let Op { case, slot } = prep.op(n);
        let case = &prep.cases[case];
        let got = run_op(workload, case, slot, &mut witness_slots, &mut tr);
        let same = match &got {
            Ok(a) => a.trace_key() == want.trace_key(),
            Err(e) => *want == Answer::Outcome(format!("error: {e}")),
        };
        if !same {
            mismatches += 1;
            eprintln!(
                "drfbench: traced answer differs on {}: {got:?} vs {want:?}",
                describe(case, slot)
            );
        }
        replayed += 1;
    }
    (tr, replayed, mismatches)
}
