//! `drfcheck` — a command-line DRF-soundness validator for shared-memory
//! program transformations, built on the `transafety` library.
//!
//! ```console
//! $ drfcheck races program.tsl
//! $ drfcheck --model tso check program.tsl
//! $ drfcheck --model pso states program.tsl
//! $ drfcheck behaviours program.tsl
//! $ drfcheck guarantee original.tsl transformed.tsl
//! $ drfcheck correspondence original.tsl transformed.tsl
//! $ drfcheck rewrites program.tsl
//! $ drfcheck --jobs 8 oota program.tsl 42
//! $ drfcheck tso program.tsl
//! $ drfcheck --max-interleavings 10000 executions program.tsl
//! $ drfcheck --timeout 5 --max-states 1000000 check program.tsl
//! $ drfcheck litmus               # list the built-in corpus
//! $ drfcheck --stats=json fuzz --pairs 20000 --witness-dir witnesses/
//! ```
//!
//! `--jobs N` selects the worker count (default: all available cores;
//! results are identical at every count). It fans out `fuzz` cases,
//! `classify`'s two traceset extractions and the `oota` closure scan;
//! the exploration phases of `check`, `states`, `races`, `behaviours`
//! and `guarantee` run the sequential engine at every `N`.
//!
//! `--model sc|tso|pso` selects the memory model the analysis commands
//! (`check`, `states`, `races`, `behaviours`, `dot`, `guarantee`,
//! `rewrites`) explore under: the sequentially consistent baseline
//! (default) or the store-buffering machines of §8. `tso` and `pso`
//! always run under their own model. `executions`, `classify`,
//! `correspondence` and `oota` answer under SC only and refuse `--model
//! tso|pso` with a usage error (exit 2).
//!
//! The analysis commands (`check`, `states`, `races`, `behaviours`,
//! `dot`, `tso`, `pso`, `executions`, `guarantee`, `rewrites`) run under
//! a resource budget: `--timeout SECS` bounds wall-clock time,
//! `--max-states N` caps explored states, `--max-interleavings N` caps
//! execution enumeration, and `Ctrl-C` cancels cooperatively.
//! `rewrites` gives each rewrite's check the whole budget and stops at
//! the first check that exceeds it. Exceeding any bound never loses the work done
//! so far — the partial result is flushed, the truncation reason (which
//! bound tripped, how many states were explored, elapsed time) goes to
//! stderr, and the exit code says what happened: `3` for a cap, `4` for
//! timeout or interruption. `tso` and `pso` also exit `3` when only the
//! per-execution action bound cut an exploration short, and say so on
//! stdout: their verdict then compares bounded behaviour sets.
//! `classify`, `correspondence` and `oota` extract tracesets without a
//! budget or metrics, so they refuse `--timeout`, `--max-states`,
//! `--stats` and `--trace-out` with a usage error (exit 2).
//!
//! Program files use the concrete syntax of the paper's §6 language (see
//! `transafety::lang::parse_program`); a corpus name (e.g. `sb`) can be
//! used anywhere a file path is expected.

use std::io::Write;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Duration;

use transafety::checker::{
    classify_transformation, no_thin_air, Analysis, OotaVerdict, TransformationClass,
};
use transafety::interleaving::{BudgetGuard, ExploreMetrics, ExploreStats};
use transafety::lang::{parse_program_with_symbols, ScheduleStep, SourceProgram};
use transafety::litmus::by_name;
use transafety::serve;
use transafety::traces::{Domain, MemoryModelKind, Value};
use transafety::{BudgetBound, CancelToken, Completeness, PhaseReport, TruncationReason, Verdict};

fn load(arg: &str) -> Result<SourceProgram, String> {
    load_with(arg, transafety::lang::SymbolTable::default())
}

fn load_with(arg: &str, symbols: transafety::lang::SymbolTable) -> Result<SourceProgram, String> {
    let source = if let Some(l) = by_name(arg) {
        l.source.to_string()
    } else {
        std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))?
    };
    parse_program_with_symbols(&source, symbols).map_err(|e| format!("{arg}: {e}"))
}

/// How `--stats` renders the collected exploration metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum StatsMode {
    /// No stats were requested.
    #[default]
    Off,
    /// Human-readable table on stderr (never disturbs stdout parsing).
    Human,
    /// One line of schema-stable JSON on stdout, after the command's
    /// normal output.
    Json,
}

/// Output configuration carried alongside [`Analysis`] by the flag
/// parser: the stats rendering mode and the optional trace sink.
#[derive(Debug, Clone, Default)]
struct StatsFlags {
    mode: StatsMode,
    trace_out: Option<String>,
}

impl StatsFlags {
    /// Does any flag require the metrics collector to be live?
    fn wants_metrics(&self) -> bool {
        self.mode != StatsMode::Off || self.trace_out.is_some()
    }

    /// The collector the analysis commands should run with.
    fn collector(&self) -> std::sync::Arc<ExploreMetrics> {
        if self.wants_metrics() {
            ExploreMetrics::collector()
        } else {
            ExploreMetrics::disabled()
        }
    }

    /// Renders `stats` per `--stats` and writes the event trace per
    /// `--trace-out`. Called on every exit path of the analysis
    /// commands, including truncated runs, so partial metrics are
    /// never lost with the partial results.
    fn emit(&self, stats: &ExploreStats) -> Result<(), String> {
        match self.mode {
            StatsMode::Off => {}
            StatsMode::Json => println!("{}", stats.to_json()),
            StatsMode::Human => {
                eprintln!("--- exploration stats ---");
                eprintln!(
                    "states: {} visited, {} interned, {} deduped",
                    stats.states_visited, stats.states_interned, stats.states_deduped
                );
                eprintln!(
                    "moves: {} generated; POR: {} ample, {} full expansions",
                    stats.moves_generated, stats.por_ample_hits, stats.por_full_expansions
                );
                eprintln!(
                    "interner: {} probes, {} hits, {} collisions, {} keys / {} slots \
                     (load {:.3})",
                    stats.intern_probes,
                    stats.intern_hits,
                    stats.intern_collisions,
                    stats.intern_keys,
                    stats.intern_slots,
                    stats.load_factor()
                );
                eprintln!(
                    "budget trips: {} wall-clock, {} states, {} cancelled, {} interleavings, \
                     {} actions",
                    stats.trip_wall_clock,
                    stats.trip_states,
                    stats.trip_cancelled,
                    stats.trip_interleavings,
                    stats.trip_actions
                );
                eprintln!(
                    "phases (ms): behaviour eval {:.3}, race search {:.3}, census {:.3}",
                    stats.behaviour_eval_nanos as f64 / 1e6,
                    stats.race_search_nanos as f64 / 1e6,
                    stats.census_nanos as f64 / 1e6,
                );
            }
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, stats.trace_dump())
                .map_err(|e| format!("--trace-out: cannot write {path}: {e}"))?;
        }
        Ok(())
    }
}

/// Exit code when a state/interleaving/action cap was exceeded.
const EXIT_LIMIT_EXCEEDED: u8 = 3;
/// Exit code when the wall-clock deadline passed or the run was
/// cancelled (`Ctrl-C`).
const EXIT_TIMED_OUT: u8 = 4;

fn usage() -> ExitCode {
    eprintln!(
        "usage: drfcheck [--model sc|tso|pso] [--jobs N] [--timeout SECS] [--max-states N] \
         [--max-interleavings N] [--no-por] [--no-await] [--stats[=json]] [--trace-out PATH] \
         <command> [args]\n\
         commands:\n  \
           check <program>                      full analysis report (three-valued verdict)\n  \
           states <program>                     count the reachable states (unreduced census)\n  \
           races <program>                      find a data race\n  \
           behaviours <program>                 print all behaviours under --model\n  \
           executions <program>                 enumerate maximal SC executions\n  \
           guarantee <original> <transformed>   check the DRF guarantee\n  \
           classify <original> <transformed>    strongest safe class (Lemma 4/5)\n  \
           rewrites <program>                   list applicable safe rewrites\n  \
           oota <program> <value>               out-of-thin-air check\n  \
           tso <program>                        TSO behaviours + §8 explanation\n  \
           pso <program>                        PSO behaviours + explanation\n  \
           dot <program>                        Graphviz happens-before graph (race witness\n                                       \
                                                under --model, else one SC execution)\n  \
           litmus                               list the built-in corpus\n  \
           serve [serve flags]                  long-running JSON-lines batch service\n                                       \
                                                (stdin/stdout, or --socket PATH)\n  \
           fuzz [fuzz flags]                    differential refinement fuzzing: random\n                                       \
                                                (program × pipeline) pairs, shrink on failure\n\
         flags:\n  \
           --model sc|tso|pso     memory model for check/states/races/behaviours/dot/guarantee/\n                         \
                                  rewrites (default: sc; tso/pso explore the §8 store-buffer\n                         \
                                  machines; a program races there iff it races under SC, so\n                         \
                                  their race search is the SC one, its witness flushing each\n                         \
                                  store at once); executions/classify/correspondence/oota\n                         \
                                  run under SC only and refuse tso/pso\n  \
           --jobs N               worker threads for fuzz, classify and oota (default: all\n                         \
                                  cores); check/states/races/behaviours/guarantee explore\n                         \
                                  sequentially at every N\n  \
           --timeout SECS         wall-clock budget for the analysis commands (rewrites: per\n                         \
                                  rewrite; classify/correspondence/oota refuse it, and\n                         \
                                  --max-states, --stats and --trace-out too)\n  \
           --max-states N         cap on explored states (approximate memory budget)\n  \
           --max-interleavings N  cap on enumerated executions\n  \
           --no-por               disable the partial-order reduction (full exploration)\n  \
           --no-await             disable the await-aware spin-loop stutter reduction\n  \
           --stats                print exploration metrics on stderr after the analysis\n  \
           --stats=json           one line of schema-stable stats JSON on stdout instead\n  \
           --trace-out PATH       write the phase/event trace (tab-separated) to PATH\n\
         serve flags:\n  \
           --socket PATH          accept clients on a Unix socket instead of stdin\n  \
           --workers N            concurrent request executors (default: all cores)\n  \
           --queue-depth N        admission queue bound; when full the oldest queued\n                         \
                                  request is shed with an 'overloaded' response (default 256)\n  \
           --cache-dir DIR        enable the crash-safe verdict cache in DIR\n                         \
                                  (or set DRFCHECK_CACHE_DIR)\n  \
           --no-cache             disable the verdict cache regardless of environment\n  \
           --fault-plan SPEC      deterministic fault injection, e.g. 'panic@2,corrupt@3'\n                         \
                                  (or set DRFCHECK_FAULTS; see the user guide)\n  \
           --stats-out PATH       write the serve-section stats JSON to PATH on exit\n\
         fuzz flags:\n  \
           --pairs N              random (program × pipeline) cases (default 1000)\n  \
           --fuzz-seed N          master seed; the whole run is a pure function of it\n  \
           --models LIST          comma-separated models to cycle over (default sc,tso,pso)\n  \
           --case-timeout-ms N    per-side analysis wall-clock budget (default 100; 0 = off)\n  \
           --case-max-states N    per-side analysis state cap (default 20000)\n  \
           --max-passes N         pipeline length bound (default 3)\n  \
           --shrink-attempts N    oracle re-runs the minimiser may spend per divergence\n  \
           --max-witnesses N      expected-divergence witnesses to minimise and keep\n  \
           --witness-dir DIR      save minimised witnesses as .tsl + .pipeline pairs\n  \
           --skip-seeded          skip the built-in known-unsafe seed cases\n\
         exit codes:\n  \
           0  success / property holds\n  \
           1  data race or unsafe transformation found (for fuzz: a refinement\n     \
              violation, a missed seeded case, or a panicking case)\n  \
           2  usage or input error\n  \
           3  a state/interleaving cap was exceeded (partial results flushed), or\n     \
              tso/pso explained bounded behaviour sets (the action bound tripped)\n  \
           4  deadline exceeded or interrupted by SIGINT/SIGTERM (partial results\n     \
              flushed; serve drains gracefully — a second signal hard-exits at once)\n\
         <program> is a file path or a corpus name (try `drfcheck litmus`)."
    );
    ExitCode::from(2)
}

/// The process-wide cancellation token, shared with the SIGINT handler.
static CANCEL: OnceLock<CancelToken> = OnceLock::new();

fn cancel_token() -> &'static CancelToken {
    CANCEL.get_or_init(CancelToken::new)
}

/// Set by the first SIGINT/SIGTERM. A second signal means the user is
/// done waiting for the graceful drain — the process hard-exits with
/// the interrupt code immediately.
static SIGNAL_SEEN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Everything here is async-signal-safe: atomic swap/store, and on
    // the repeat-signal path `_exit(2)` (no atexit handlers, no
    // unwinding, no allocation).
    if SIGNAL_SEEN.swap(true, std::sync::atomic::Ordering::AcqRel) {
        // SAFETY: `_exit` terminates the process without running any
        // non-signal-safe cleanup; that is exactly the point.
        unsafe { _exit(i32::from(EXIT_TIMED_OUT)) }
    }
    // The analysis observes the token at its next cooperative check and
    // flushes a partial report instead of the process dying mid-print.
    if let Some(token) = CANCEL.get() {
        token.cancel();
    }
}

const SIGINT: i32 = 2;
const SIGPIPE: i32 = 13;
const SIGTERM: i32 = 15;
const SIG_DFL: usize = 0;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn _exit(code: i32) -> !;
}

fn install_signal_handlers() {
    // Initialise the token first so the handler never races the
    // `OnceLock`.
    let _ = cancel_token();
    // SAFETY: the handler is an `extern "C" fn` that only performs
    // atomic operations on an already-initialised static (or `_exit`).
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

/// Restores the default SIGPIPE action, which the Rust runtime sets to
/// "ignore": a command whose stdout closes early (`drfcheck litmus |
/// head`) then ends quietly, like any other Unix filter, instead of
/// panicking on its next print. `serve` keeps ignoring the signal, or
/// a socket client that disconnects would kill the server.
fn restore_default_sigpipe() {
    // SAFETY: installing the default action runs no handler code.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

/// Maps a truncated run to stderr diagnostics plus the exit code
/// documented in `--help`; `None` means the run was complete.
fn degraded_exit(
    reason: Option<TruncationReason>,
    states: usize,
    elapsed: Duration,
) -> Option<ExitCode> {
    let reason = reason?;
    eprintln!(
        "drfcheck: analysis truncated: {reason} — {states} states explored in {:.3}s",
        elapsed.as_secs_f64(),
    );
    let code = match reason {
        TruncationReason::Cancelled | TruncationReason::BudgetExceeded(BudgetBound::WallClock) => {
            EXIT_TIMED_OUT
        }
        TruncationReason::BudgetExceeded(_) => EXIT_LIMIT_EXCEEDED,
    };
    Some(ExitCode::from(code))
}

/// The truncation reason of a report, if any.
fn truncation(completeness: Completeness) -> Option<TruncationReason> {
    match completeness {
        Completeness::Complete => None,
        Completeness::Truncated { reason } => Some(reason),
    }
}

/// [`degraded_exit`] reading its inputs off a phase report.
fn phase_exit<T>(report: &PhaseReport<T>) -> Option<ExitCode> {
    degraded_exit(
        truncation(report.completeness),
        report.states_explored,
        report.elapsed,
    )
}

/// [`phase_exit`] letting the per-execution action bound pass: that
/// bound is ordinary configuration (loops need one) and is reported
/// inline, exit 0; only hard budget trips change the exit code.
fn hard_phase_exit<T>(report: &PhaseReport<T>) -> Option<ExitCode> {
    match report.completeness {
        Completeness::Truncated {
            reason: TruncationReason::BudgetExceeded(BudgetBound::Actions),
        } => None,
        _ => phase_exit(report),
    }
}

/// Adds one run's counters, phase times and events into `total`, so the
/// stats of a command that runs several analyses cover them all. Each
/// run's event times count from that run's own start.
fn add_stats(total: &mut ExploreStats, run: &ExploreStats) {
    for (sum, n) in [
        (&mut total.states_visited, run.states_visited),
        (&mut total.states_interned, run.states_interned),
        (&mut total.states_deduped, run.states_deduped),
        (&mut total.moves_generated, run.moves_generated),
        (&mut total.por_ample_hits, run.por_ample_hits),
        (&mut total.por_full_expansions, run.por_full_expansions),
        (&mut total.intern_probes, run.intern_probes),
        (&mut total.intern_hits, run.intern_hits),
        (&mut total.intern_collisions, run.intern_collisions),
        (&mut total.intern_keys, run.intern_keys),
        (&mut total.intern_slots, run.intern_slots),
        (&mut total.trip_wall_clock, run.trip_wall_clock),
        (&mut total.trip_states, run.trip_states),
        (&mut total.trip_cancelled, run.trip_cancelled),
        (&mut total.trip_interleavings, run.trip_interleavings),
        (&mut total.trip_actions, run.trip_actions),
        (&mut total.dpor_proviso_blocks, run.dpor_proviso_blocks),
        (&mut total.dpor_flush_ample_hits, run.dpor_flush_ample_hits),
        (&mut total.dpor_prev_carries, run.dpor_prev_carries),
        (&mut total.await_collapsed, run.await_collapsed),
        (&mut total.await_wakeups, run.await_wakeups),
        (&mut total.behaviour_eval_nanos, run.behaviour_eval_nanos),
        (&mut total.race_search_nanos, run.race_search_nanos),
        (&mut total.census_nanos, run.census_nanos),
        (&mut total.events_dropped, run.events_dropped),
    ] {
        *sum += n;
    }
    total.events.extend_from_slice(&run.events);
}

/// Prints the full per-model schedule to the race when it contains
/// moves the happens-before event path abstracts away (the store-buffer
/// flushes of the TSO/PSO machines). Under SC every step is an action
/// already shown in the witness, so nothing extra is printed.
fn print_schedule(schedule: &[ScheduleStep]) {
    if !schedule.iter().any(|s| s.label.is_flush()) {
        return;
    }
    println!("schedule (with store-buffer flushes):");
    for step in schedule {
        println!("  {step}");
    }
}

/// Splits global flags off the argument list into an [`Analysis`]
/// configuration; everything else is handed to the subcommands.
fn parse_flags(args: &[String]) -> Result<(Analysis, StatsFlags, Vec<String>), String> {
    let mut opts = Analysis::new().auto_jobs();
    let mut stats = StatsFlags::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stats" => {
                stats.mode = StatsMode::Human;
            }
            "--stats=json" => {
                stats.mode = StatsMode::Json;
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out requires a path")?;
                stats.trace_out = Some(v.clone());
            }
            "--jobs" | "-j" => {
                let v = it.next().ok_or("--jobs requires a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs: not a number: {v}"))?;
                opts = opts.jobs(n);
            }
            "--max-interleavings" => {
                let v = it.next().ok_or("--max-interleavings requires a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--max-interleavings: not a number: {v}"))?;
                opts = opts.max_interleavings(n);
            }
            "--timeout" => {
                let v = it.next().ok_or("--timeout requires a value (seconds)")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--timeout: not a number: {v}"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!("--timeout: not a duration: {v}"));
                }
                if secs == 0.0 {
                    // A zero deadline is a configuration mistake, not a
                    // budget to exceed: reject it up front (exit 2)
                    // instead of reporting a BudgetExceeded truncation.
                    return Err(
                        "--timeout: must be positive (a zero deadline can never admit \
                         any exploration)"
                            .to_string(),
                    );
                }
                opts = opts.timeout(Duration::from_secs_f64(secs));
            }
            "--max-states" => {
                let v = it.next().ok_or("--max-states requires a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--max-states: not a number: {v}"))?;
                opts = opts.max_states(n);
            }
            "--no-por" => {
                opts = opts.por(false);
            }
            "--no-await" => {
                opts = opts.awaits(false);
            }
            "--model" => {
                let v = it
                    .next()
                    .ok_or("--model requires a value (sc, tso or pso)")?;
                let model: MemoryModelKind = v.parse().map_err(|e| format!("--model: {e}"))?;
                opts = opts.model(model);
            }
            _ => rest.push(a.clone()),
        }
    }
    if stats.wants_metrics() {
        opts = opts.metrics(true);
    }
    // Catch the remaining degenerate bounds (e.g. --max-states 0) the
    // same way: as usage errors, before any exploration starts.
    opts.budget.validate()?;
    Ok((opts, stats, rest))
}

fn main() -> ExitCode {
    install_signal_handlers();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_flags(&args).and_then(|(opts, stats, rest)| {
        if rest.first().map(String::as_str) != Some("serve") {
            restore_default_sigpipe();
        }
        run(&rest, &opts, &stats)
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("drfcheck: {e}");
            ExitCode::from(2)
        }
    }
}

/// `drfcheck serve`: the long-running JSON-lines batch service. Global
/// flags (`--model`, `--timeout`, `--jobs`, …) become the per-request
/// defaults; the flags parsed here configure the service itself.
fn serve_cmd(args: &[String], opts: &Analysis, stats: &StatsFlags) -> Result<ExitCode, String> {
    let mut socket: Option<String> = None;
    let mut queue_depth: usize = 256;
    let mut workers = transafety::available_jobs();
    let mut cache_dir = std::env::var("DRFCHECK_CACHE_DIR").ok();
    let mut no_cache = false;
    let mut fault_spec = std::env::var("DRFCHECK_FAULTS").unwrap_or_default();
    let mut stats_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                let v = it.next().ok_or("--socket requires a path")?;
                socket = Some(v.clone());
            }
            "--queue-depth" => {
                let v = it.next().ok_or("--queue-depth requires a value")?;
                queue_depth = v
                    .parse()
                    .map_err(|_| format!("--queue-depth: not a number: {v}"))?;
                if queue_depth == 0 {
                    return Err("--queue-depth: must be positive".to_string());
                }
            }
            "--workers" => {
                let v = it.next().ok_or("--workers requires a value")?;
                workers = v
                    .parse()
                    .map_err(|_| format!("--workers: not a number: {v}"))?;
                if workers == 0 {
                    return Err("--workers: must be positive".to_string());
                }
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir requires a path")?;
                cache_dir = Some(v.clone());
            }
            "--no-cache" => no_cache = true,
            "--fault-plan" => {
                let v = it.next().ok_or("--fault-plan requires a spec")?;
                fault_spec = v.clone();
            }
            "--stats-out" => {
                let v = it.next().ok_or("--stats-out requires a path")?;
                stats_out = Some(v.clone());
            }
            other => return Err(format!("serve: unknown argument {other:?}")),
        }
    }
    let faults = serve::FaultPlan::parse(&fault_spec).map_err(|e| format!("--fault-plan: {e}"))?;
    if !faults.is_empty() {
        eprintln!("drfcheck: serve: FAULT INJECTION ACTIVE ({faults})");
    }
    let config = serve::ServeConfig {
        workers,
        queue_depth,
        defaults: opts.clone(),
        cache_dir: if no_cache {
            None
        } else {
            cache_dir.map(std::path::PathBuf::from)
        },
        faults,
    };
    let server = serve::Server::new(config).map_err(|e| format!("serve: cache: {e}"))?;

    // Bridge the process-wide signal token to this session's drain
    // token. The poller is detached; it dies with the process.
    let drain = server.drain_token();
    std::thread::spawn(move || loop {
        if cancel_token().is_cancelled() {
            drain.cancel();
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });

    let summary = if let Some(path) = socket {
        let path = std::path::PathBuf::from(path);
        // A stale socket from a crashed predecessor would make bind
        // fail; connect-refused stale files are safe to clear.
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path)
            .map_err(|e| format!("serve: cannot bind {}: {e}", path.display()))?;
        eprintln!("drfcheck: serving on {}", path.display());
        let summary = server
            .run_unix_listener(listener)
            .map_err(|e| format!("serve: accept loop failed: {e}"))?;
        let _ = std::fs::remove_file(&path);
        summary
    } else {
        let reader = std::io::BufReader::new(std::io::stdin());
        let writer = std::sync::Arc::new(std::sync::Mutex::new(std::io::stdout()));
        server.run(reader, &writer)
    };

    match stats.mode {
        StatsMode::Off => {}
        StatsMode::Human => eprintln!("{}", summary.stats.to_human()),
        StatsMode::Json => println!("{}", summary.stats.to_json()),
    }
    if let Some(path) = &stats_out {
        std::fs::write(path, format!("{}\n", summary.stats.to_json()))
            .map_err(|e| format!("--stats-out: cannot write {path}: {e}"))?;
    }
    if cancel_token().is_cancelled() {
        eprintln!(
            "drfcheck: serve session drained after interrupt: {} responses flushed in {:.3}s",
            summary.stats.latency_count()
                + summary.stats.responses_overloaded
                + summary.stats.responses_cancelled,
            summary.elapsed.as_secs_f64()
        );
        return Ok(ExitCode::from(EXIT_TIMED_OUT));
    }
    Ok(ExitCode::SUCCESS)
}

/// `drfcheck fuzz`: the differential refinement fuzzing soak. Global
/// flags supply the worker count (`--jobs`) and the POR toggle
/// (`--no-por`); the flags parsed here configure the run itself.
fn fuzz_cmd(args: &[String], opts: &Analysis, stats: &StatsFlags) -> Result<ExitCode, String> {
    use transafety::fuzz::{run_soak, SoakConfig};

    let mut config = SoakConfig {
        jobs: opts.jobs,
        por: opts.explore.por,
        ..SoakConfig::default()
    };
    let mut case_timeout_ms: u64 = 100;
    let mut case_max_states: usize = 20_000;
    let mut witness_dir: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pairs" => {
                let v = it.next().ok_or("--pairs requires a value")?;
                config.pairs = v
                    .parse()
                    .map_err(|_| format!("--pairs: not a number: {v}"))?;
            }
            "--fuzz-seed" => {
                let v = it.next().ok_or("--fuzz-seed requires a value")?;
                config.seed = v
                    .parse()
                    .map_err(|_| format!("--fuzz-seed: not a number: {v}"))?;
            }
            "--models" => {
                let v = it.next().ok_or("--models requires a list (e.g. sc,tso)")?;
                config.models = v
                    .split(',')
                    .map(|m| m.trim().parse().map_err(|e| format!("--models: {e}")))
                    .collect::<Result<Vec<MemoryModelKind>, String>>()?;
                if config.models.is_empty() {
                    return Err("--models: the list must not be empty".to_string());
                }
            }
            "--case-timeout-ms" => {
                let v = it.next().ok_or("--case-timeout-ms requires a value")?;
                case_timeout_ms = v
                    .parse()
                    .map_err(|_| format!("--case-timeout-ms: not a number: {v}"))?;
            }
            "--case-max-states" => {
                let v = it.next().ok_or("--case-max-states requires a value")?;
                case_max_states = v
                    .parse()
                    .map_err(|_| format!("--case-max-states: not a number: {v}"))?;
                if case_max_states == 0 {
                    return Err("--case-max-states: must be positive".to_string());
                }
            }
            "--max-passes" => {
                let v = it.next().ok_or("--max-passes requires a value")?;
                config.pipeline.max_passes = v
                    .parse()
                    .map_err(|_| format!("--max-passes: not a number: {v}"))?;
            }
            "--shrink-attempts" => {
                let v = it.next().ok_or("--shrink-attempts requires a value")?;
                config.shrink_attempts = v
                    .parse()
                    .map_err(|_| format!("--shrink-attempts: not a number: {v}"))?;
            }
            "--max-witnesses" => {
                let v = it.next().ok_or("--max-witnesses requires a value")?;
                config.max_witnesses = v
                    .parse()
                    .map_err(|_| format!("--max-witnesses: not a number: {v}"))?;
            }
            "--witness-dir" => {
                let v = it.next().ok_or("--witness-dir requires a path")?;
                witness_dir = Some(std::path::PathBuf::from(v));
            }
            "--skip-seeded" => config.skip_seeded = true,
            other => return Err(format!("fuzz: unknown argument {other:?}")),
        }
    }
    let mut budget = transafety::Budget::unlimited().max_states(case_max_states);
    if case_timeout_ms > 0 {
        budget = budget.timeout(Duration::from_millis(case_timeout_ms));
    }
    config.budget = budget;

    let report = run_soak(&config);

    println!(
        "fuzz: {} pairs checked under {} — {} refine, {} identity, {} inconclusive, \
         {} expected divergences, {} violations",
        report.stats.pairs_checked,
        config
            .models
            .iter()
            .map(|m| m.as_str())
            .collect::<Vec<_>>()
            .join(","),
        report.stats.refines,
        report.stats.identity,
        report.stats.inconclusive,
        report.stats.expected_divergences,
        report.stats.violations,
    );
    if !config.skip_seeded {
        println!(
            "fuzz: seeded known-unsafe cases: {} detected, {} missed",
            report.stats.seeded_detected, report.stats.seeded_missed
        );
    }
    if report.stats.panics > 0 {
        println!(
            "fuzz: {} case(s) panicked inside the fault boundary",
            report.stats.panics
        );
    }
    if let Some(dir) = &witness_dir {
        for (i, w) in report.violations.iter().enumerate() {
            w.save(dir, &format!("violation-{i}"))
                .map_err(|e| format!("--witness-dir: cannot write {}: {e}", dir.display()))?;
        }
        for (i, w) in report.witnesses.iter().enumerate() {
            w.save(dir, &format!("witness-{i}"))
                .map_err(|e| format!("--witness-dir: cannot write {}: {e}", dir.display()))?;
        }
        println!(
            "fuzz: saved {} witness pair(s) to {}",
            report.violations.len() + report.witnesses.len(),
            dir.display()
        );
    }
    for w in &report.violations {
        eprintln!(
            "drfcheck: REFINEMENT VIOLATION under {}:\n{}",
            w.model, w.program
        );
        let rules: Vec<String> = w.rules.iter().map(ToString::to_string).collect();
        eprintln!("pipeline: {} (rules: {})", w.pipeline, rules.join(", "));
    }
    match stats.mode {
        StatsMode::Off => {}
        StatsMode::Human => eprintln!("{}", report.stats.to_human()),
        StatsMode::Json => println!("{}", report.stats.to_json()),
    }
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The commands that answer under SC only: they enumerate §3
/// executions or classify over SC tracesets, so a relaxed `--model`
/// would be silently ignored.
const SC_ONLY: [&str; 4] = ["executions", "classify", "correspondence", "oota"];

/// The commands whose traceset extraction runs without a budget or a
/// metrics collector: the budget and stats flags would be silently
/// dropped, so they are refused.
const UNBUDGETED: [&str; 3] = ["classify", "correspondence", "oota"];

fn run(args: &[String], opts: &Analysis, stats: &StatsFlags) -> Result<ExitCode, String> {
    let command = args.first().map(String::as_str);
    if let Some(cmd) = command.filter(|cmd| SC_ONLY.contains(cmd)) {
        if opts.model != MemoryModelKind::Sc {
            return Err(format!(
                "{cmd} runs under SC only; --model {} is not supported",
                opts.model
            ));
        }
    }
    if let Some(cmd) = command.filter(|cmd| UNBUDGETED.contains(cmd)) {
        let flags = [
            ("--timeout", opts.budget.deadline.is_some()),
            ("--max-states", opts.budget.max_states.is_some()),
            ("--stats", stats.mode != StatsMode::Off),
            ("--trace-out", stats.trace_out.is_some()),
        ];
        if let Some((flag, _)) = flags.iter().find(|(_, given)| *given) {
            return Err(format!("{cmd} does not support {flag}"));
        }
    }
    match command {
        Some("check") if args.len() == 2 => {
            let p = load(&args[1])?;
            let report = opts.run_with_cancel(&p.program, cancel_token().clone());
            println!("model: {}", report.model);
            println!("verdict: {}", report.verdict);
            println!(
                "behaviours: {}{}",
                report.behaviours.value.len(),
                if report.behaviours.complete {
                    ""
                } else {
                    " (bounded)"
                }
            );
            println!("completeness: {}", report.completeness);
            if let Some(w) = &report.race {
                println!("{w}");
                if let Some(schedule) = &report.race_schedule {
                    print_schedule(schedule);
                }
            }
            stats.emit(&report.stats)?;
            if let Some(code) = degraded_exit(
                truncation(report.completeness),
                report.states_explored,
                report.elapsed,
            ) {
                return Ok(code);
            }
            Ok(match report.verdict {
                Verdict::Racy => ExitCode::FAILURE,
                Verdict::DrfProven | Verdict::Unknown => ExitCode::SUCCESS,
            })
        }
        Some("states") if args.len() == 2 => {
            let p = load(&args[1])?;
            let report = opts.census_with_cancel(&p.program, cancel_token().clone());
            println!("model: {}", report.model);
            println!("reachable states: {}", report.output);
            println!("completeness: {}", report.completeness);
            stats.emit(&report.stats)?;
            Ok(phase_exit(&report).unwrap_or(ExitCode::SUCCESS))
        }
        Some("races") if args.len() == 2 => {
            let p = load(&args[1])?;
            let report = opts.races_with_cancel(&p.program, cancel_token().clone());
            let code = if let Some(w) = &report.output {
                // A witness is conclusive however the search was
                // bounded.
                println!("{}", w.witness);
                print_schedule(&w.schedule);
                ExitCode::FAILURE
            } else if let Some(reason) = truncation(report.completeness) {
                println!("unknown: search truncated ({reason})");
                phase_exit(&report).expect("truncated runs always map to an exit code")
            } else {
                println!("data race free");
                ExitCode::SUCCESS
            };
            stats.emit(&report.stats)?;
            Ok(code)
        }
        Some("behaviours") if args.len() == 2 => {
            let p = load(&args[1])?;
            let report = opts.behaviours_with_cancel(&p.program, cancel_token().clone());
            if !report.output.complete {
                println!("(bounded: exploration hit its limits)");
            }
            for beh in &report.output.value {
                let rendered: Vec<String> = beh.iter().map(ToString::to_string).collect();
                println!("[{}]", rendered.join(", "));
            }
            stats.emit(&report.stats)?;
            Ok(hard_phase_exit(&report).unwrap_or(ExitCode::SUCCESS))
        }
        Some("executions") if args.len() == 2 => {
            let p = load(&args[1])?;
            let collector = stats.collector();
            let guard =
                BudgetGuard::with_metrics(&opts.budget, cancel_token().clone(), collector.clone());
            let e = transafety::lang::extract_traceset(&p.program, &opts.domain, &opts.extract);
            let (execs, capped) = transafety::interleaving::Explorer::new(&e.traceset)
                .maximal_executions_governed(opts.limits(), &guard);
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            for i in &execs {
                writeln!(out, "{i}").map_err(|e| format!("cannot write to stdout: {e}"))?;
            }
            stats.emit(&collector.snapshot())?;
            if capped {
                eprintln!(
                    "drfcheck: execution enumeration was cut short (raise the cap \
                     with --max-interleavings, or the budget with --timeout/--max-states)"
                );
            }
            let degraded = degraded_exit(guard.trip_reason(), guard.states(), guard.elapsed());
            Ok(degraded.unwrap_or(ExitCode::SUCCESS))
        }
        Some("guarantee") if args.len() == 3 => {
            let original = load(&args[1])?;
            let transformed = load_with(&args[2], original.symbols.clone())?;
            let report = opts.guarantee_with_cancel(
                &transformed.program,
                &original.program,
                cancel_token().clone(),
            );
            println!("{}", report.output);
            stats.emit(&report.stats)?;
            let verdict_code = if report.output.is_consistent_with_paper() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
            Ok(hard_phase_exit(&report).unwrap_or(verdict_code))
        }
        Some("classify") | Some("correspondence") if args.len() == 3 => {
            let original = load(&args[1])?;
            let transformed = load_with(&args[2], original.symbols.clone())?;
            let class = classify_transformation(&transformed.program, &original.program, opts);
            println!("{class}");
            if let TransformationClass::Unsafe {
                witness_trace: Some(t),
            } = &class
            {
                println!("no semantic witness for trace {t}");
            }
            Ok(if class.is_paper_safe() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("rewrites") if args.len() == 2 => {
            let p = load(&args[1])?;
            let mut total = ExploreStats {
                enabled: opts.metrics,
                model: opts.model.as_str().to_string(),
                ..ExploreStats::default()
            };
            let mut code = ExitCode::SUCCESS;
            for rw in transafety::syntactic::all_rewrites(&p.program) {
                let report =
                    opts.guarantee_with_cancel(&rw.result, &p.program, cancel_token().clone());
                println!("{rw} — {}", report.output);
                add_stats(&mut total, &report.stats);
                if let Some(degraded) = hard_phase_exit(&report) {
                    code = degraded;
                    break;
                }
            }
            stats.emit(&total)?;
            Ok(code)
        }
        Some("oota") if args.len() == 3 => {
            let p = load(&args[1])?;
            let value: u32 = args[2]
                .parse()
                .map_err(|_| format!("not a value: {}", args[2]))?;
            let value = Value::new(value);
            let domain = Domain::from_values(
                p.program
                    .constants()
                    .into_iter()
                    .chain([value, Value::new(1)]),
            );
            let o = opts.clone().domain(domain);
            let verdict = no_thin_air(&p.program, value, 3, &o);
            println!("{verdict}");
            Ok(match verdict {
                OotaVerdict::Safe { .. } | OotaVerdict::MentionsConstant => ExitCode::SUCCESS,
                _ => ExitCode::FAILURE,
            })
        }
        Some(cmd @ ("tso" | "pso")) if args.len() == 2 => {
            let p = load(&args[1])?;
            let (model, fragment) = match cmd {
                "tso" => (
                    MemoryModelKind::Tso,
                    "W→R reordering + forwarding elimination",
                ),
                _ => (MemoryModelKind::Pso, "the W→R + W→W reordering fragment"),
            };
            let analysis = opts.clone().model(model);
            let report = analysis.explain_with_cancel(&p.program, 3, cancel_token().clone());
            let e = &report.output;
            if !e.complete {
                println!("(bounded: exploration hit its limits; the explanation is not exact)");
            }
            println!(
                "SC behaviours: {} — {} behaviours: {}{}",
                e.sc.len(),
                cmd.to_uppercase(),
                e.behaviours.len(),
                if e.relaxed { " (relaxed)" } else { "" }
            );
            println!(
                "explained by {fragment} (closure of {} programs): {}",
                e.closure_size,
                if e.explained { "yes" } else { "NO" }
            );
            stats.emit(&report.stats)?;
            if let Some(code) = phase_exit(&report) {
                return Ok(code);
            }
            Ok(if !e.complete {
                ExitCode::from(EXIT_LIMIT_EXCEEDED)
            } else if e.explained {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("dot") if args.len() == 2 => {
            let p = load(&args[1])?;
            let report = opts.races_with_cancel(&p.program, cancel_token().clone());
            // A witness is conclusive however the search was bounded.
            // Without one, only a completed search proves the program
            // race free: a truncated search draws nothing.
            let degraded = match report.output {
                Some(_) => None,
                None => phase_exit(&report),
            };
            if let Some(w) = &report.output {
                print!("{}", transafety::interleaving::hb_dot(&w.witness.execution));
            } else if degraded.is_none() {
                // any maximal execution of the (bounded) traceset
                let e = transafety::lang::extract_traceset(
                    &p.program,
                    &opts.domain,
                    &transafety::lang::ExtractOptions::default(),
                );
                let execs = transafety::interleaving::Explorer::new(&e.traceset)
                    .maximal_executions(transafety::interleaving::ExploreLimits {
                        max_interleavings: 1,
                    });
                match execs.first() {
                    Some(i) => print!("{}", transafety::interleaving::hb_dot(i)),
                    None => println!("// no executions"),
                }
            }
            stats.emit(&report.stats)?;
            Ok(degraded.unwrap_or(ExitCode::SUCCESS))
        }
        Some("serve") => serve_cmd(&args[1..], opts, stats),
        Some("fuzz") => fuzz_cmd(&args[1..], opts, stats),
        Some("litmus") if args.len() == 1 => {
            for l in transafety::litmus::corpus() {
                println!(
                    "{:<26} {:<12} {}",
                    l.name,
                    l.paper_ref.unwrap_or("-"),
                    l.description
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}
