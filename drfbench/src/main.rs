//! `drfbench` — the end-to-end benchmark of transafety.
//!
//! ```text
//! drfbench run     --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--data DIR]
//! drfbench bless   [--workload W|all] [--force] [--data DIR]
//! drfbench compare --base FILE... --head FILE...
//! drfbench setup   --workload W [--seed N] [--smoke] [--data DIR]
//! ```
//!
//! `run` times one workload in this process and prints every
//! end-to-end metric as `name value unit`, then one JSON result line.
//! It checks every answer against the blessed pool and exits 1 on a
//! mismatch. `run --trace 1` replays the same ops as separate layer
//! calls with spans and prints the per-layer metrics instead; it also
//! exits 1 when a traced answer differs from the untraced one. `setup`
//! is the set-up probe `run` starts (see [`SETUP_PROBES`]). See
//! `README.md` next to this package's manifest.

mod bless;
mod compare;
mod data;
mod ops;
mod report;
mod serve_load;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use report::END_TO_END;
use trace::{Extras, Tracer};
use workload::{Breaks, Measured, Prepared, Workload};

/// Set-up probes per run: child processes (`drfbench setup`), each
/// timing [`SETUP_REPEATS`] set-ups back to back; `setup_s` is the
/// median of all their times. A set-up takes milliseconds and the host
/// slows such work down by up to 1.7× in spells of one to three
/// seconds, so the probes are spread over the run: one before the timed
/// loop and the rest in breaks the loop takes, off its clock. Set-ups in
/// the run's own process during or after its loop would add to its peak
/// memory, and after it run on the heap the loop left behind, up to
/// twice as slowly; a child's do neither. A probe's first set-up, in a
/// fresh process, is its slowest; the median lies among the later ones.
const SETUP_PROBES: usize = 10;
const SETUP_REPEATS: usize = 6;
const DEFAULT_SECONDS: f64 = 30.0;
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Debug)]
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    force: bool,
    data: Option<PathBuf>,
    base: Vec<String>,
    head: Vec<String>,
}

fn usage() -> String {
    "usage: drfbench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--data DIR]\n\
     \x20      drfbench bless [--workload W|all] [--force] [--data DIR]\n\
     \x20      drfbench compare --base FILE... --head FILE...\n\
     \x20      drfbench setup --workload W [--seed N] [--smoke] [--data DIR]"
        .to_string()
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut it = argv.into_iter().skip(1);
    let command = it.next().ok_or_else(usage)?;
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        force: false,
        data: None,
        base: Vec::new(),
        head: Vec::new(),
    };
    let mut list: Option<bool> = None;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => match value("--trace")?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--smoke" => args.smoke = true,
            "--force" => args.force = true,
            "--data" => args.data = Some(PathBuf::from(value("--data")?)),
            "--base" => list = Some(false),
            "--head" => list = Some(true),
            other if !other.starts_with("--") && list.is_some() => {
                if list == Some(true) {
                    args.head.push(other.to_string());
                } else {
                    args.base.push(other.to_string());
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Where traced runs write their spans and replay cache: inside the
/// cargo target dir when one is set, else `target/`.
fn work_dir() -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("drfbench-work")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("drfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "run" => run(&args),
        "setup" => time_setups(&args).map(|()| true),
        "bless" => run_bless(&args).map(|()| true),
        "compare" => compare::compare(&args.base, &args.head).map(|table| {
            print!("{table}");
            true
        }),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("drfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_bless(args: &Args) -> Result<(), String> {
    let data_dir = args.data.clone().unwrap_or_else(data::default_dir);
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    let which = args.workload.as_deref().unwrap_or("all");
    let workloads: Vec<Workload> = if which == "all" {
        vec![
            Workload::CheckSmall,
            Workload::CheckLarge,
            Workload::RewriteValidate,
        ]
    } else {
        vec![Workload::parse(which)?]
    };
    for w in workloads {
        bless::bless(w, &data_dir, args.force)?;
    }
    Ok(())
}

/// Runs one workload; `Ok(false)` when an answer was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let workload = Workload::parse(args.workload.as_deref().ok_or("--workload is required")?)?;
    let data_dir = args.data.clone().unwrap_or_else(data::default_dir);
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if args.trace {
        run_traced(workload, &data_dir, args, seconds)
    } else {
        run_untraced(workload, &data_dir, args, seconds)
    }
}

/// The inputs of a run and, for `serve-mixed`, its server.
type SetUp = (Arc<Prepared>, Option<transafety::serve::Server>);

/// One set-up: load the pool, draw the sample and, for `serve-mixed`,
/// start the server.
fn setup(workload: Workload, data_dir: &Path, args: &Args) -> Result<SetUp, String> {
    let prep = workload::setup(workload, data_dir, args.seed, args.smoke)?;
    let server = match workload {
        Workload::ServeMixed => Some(serve_load::start_server()?),
        _ => None,
    };
    Ok((Arc::new(prep), server))
}

/// `drfbench setup`: sets up [`SETUP_REPEATS`] times in this process,
/// printing each set-up's wall time in seconds (not its tear-down).
fn time_setups(args: &Args) -> Result<(), String> {
    let workload = Workload::parse(args.workload.as_deref().ok_or("--workload is required")?)?;
    let data_dir = args.data.clone().unwrap_or_else(data::default_dir);
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let done = setup(workload, &data_dir, args)?;
        println!("{}", t0.elapsed().as_secs_f64());
        drop(done);
    }
    Ok(())
}

/// Runs set-up probes (see [`SETUP_PROBES`]) and collects their times;
/// clones share one list.
#[derive(Clone)]
struct SetupProbe {
    command: Vec<String>,
    times: Arc<Mutex<Result<Vec<f64>, String>>>,
}

impl SetupProbe {
    fn new(workload: Workload, data_dir: &Path, args: &Args) -> Self {
        let mut command = vec![
            "setup".to_string(),
            "--workload".into(),
            workload.name().into(),
            "--seed".into(),
            args.seed.to_string(),
            "--data".into(),
            data_dir.display().to_string(),
        ];
        if args.smoke {
            command.push("--smoke".into());
        }
        SetupProbe {
            command,
            times: Arc::new(Mutex::new(Ok(Vec::new()))),
        }
    }

    /// Runs one probe and waits for it; the first failure is kept.
    fn probe(&self) {
        let times = self.run_child();
        let mut all = self.times.lock().expect("probes do not panic");
        match (&mut *all, times) {
            (Ok(all), Ok(times)) => all.extend(times),
            (Ok(_), Err(e)) => *all = Err(e),
            (Err(_), _) => {}
        }
    }

    fn run_child(&self) -> Result<Vec<f64>, String> {
        let exe = std::env::current_exe().map_err(|e| format!("set-up probe: {e}"))?;
        let out = Command::new(exe)
            .args(self.command.iter())
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "set-up probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| {
                l.parse()
                    .map_err(|e| format!("set-up probe printed {l:?}: {e}"))
            })
            .collect()
    }

    /// The breaks a timed run takes for the remaining probes.
    fn breaks(&self, seconds: f64) -> Breaks {
        let probe = self.clone();
        Breaks {
            every_s: seconds / SETUP_PROBES as f64,
            run: Box::new(move || probe.probe()),
        }
    }

    fn times(&self) -> Result<Vec<f64>, String> {
        self.times.lock().expect("probes do not panic").clone()
    }
}

fn header(workload: Workload, args: &Args, seconds: f64) -> String {
    format!(
        "workload {} seed {} seconds {seconds} trace {} smoke {} jobs-available {}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        args.smoke,
        transafety::available_jobs()
    )
}

fn mismatch_notes(m: &Measured) -> Vec<String> {
    m.mismatches
        .iter()
        .map(|s| format!("MISMATCH {s}"))
        .collect()
}

fn run_untraced(
    workload: Workload,
    data_dir: &Path,
    args: &Args,
    seconds: f64,
) -> Result<bool, String> {
    let (prep, server) = setup(workload, data_dir, args)?;
    let probe = SetupProbe::new(workload, data_dir, args);
    probe.probe();
    // A smoke run is one pass, too short to spread probes over.
    let breaks = (!args.smoke).then(|| probe.breaks(seconds));
    let mut m = match &server {
        Some(server) => serve_load::run(server, &prep, args.seed, seconds, false, breaks).0,
        None => workload::closed_loop(
            workload,
            &prep,
            (!args.smoke).then_some(seconds),
            false,
            breaks,
        ),
    };
    let peak_rss_mb = stats::peak_rss_mb();
    let setup_times = probe.times()?;
    let ops = m.attempted.max(1) as f64;
    let values = [
        m.throughput,
        m.latency.p50(),
        m.latency.p99(),
        m.cpu_ms_per_op,
        m.decided as f64 / ops,
        stats::median(&setup_times),
        peak_rss_mb,
    ];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| (d.name, v, d.unit))
        .collect();
    let quantiles = if m.latency.window() == usize::MAX {
        format!("over all {} samples", m.latency.samples())
    } else {
        format!(
            "median over {} windows of {} of {} samples, each window's p99 with 2 samples beyond it",
            m.latency.windows(),
            m.latency.window(),
            m.latency.samples()
        )
    };
    let mut notes = vec![
        format!(
            "latency quantiles: {quantiles}; {} ops in {:.3} s",
            m.attempted, m.wall_s
        ),
        format!("error_ratio {} ratio", m.errors as f64 / ops),
    ];
    if !m.by_group.is_empty() {
        let total: f64 = m.by_group.values().map(|g| g.1).sum();
        let shares: Vec<String> = m
            .by_group
            .iter()
            .map(|(g, (n, ms))| format!("{g} {n} ops {:.1}%", ms * 100.0 / total))
            .collect();
        notes.push(format!("time by group: {}", shares.join(", ")));
    }
    if let Some(slo) = m.slo_attainment {
        notes.push(format!("slo_attainment {slo} ratio"));
        notes.push(format!(
            "generator_lag_p99_ms {} ms",
            m.generator_lag_p99_ms
        ));
    }
    notes.extend(mismatch_notes(&m));
    let correct = m.failed == 0;
    report::emit(
        &header(workload, args, seconds),
        &notes,
        &metrics,
        correct,
        m.attempted,
        m.failed,
    );
    Ok(correct)
}

fn run_traced(
    workload: Workload,
    data_dir: &Path,
    args: &Args,
    seconds: f64,
) -> Result<bool, String> {
    let (prep, server) = setup(workload, data_dir, args)?;
    let mut extras = Extras::default();
    let (m, tracer) = match &server {
        Some(server) => {
            let (m, responses) =
                serve_load::run(server, &prep, args.seed, seconds * 0.5, true, None);
            let cache = work_dir().join(format!("replay-cache-{}", std::process::id()));
            let plain =
                serve_load::replay(&responses, &cache, seconds * 0.25, &mut Tracer::disabled())?;
            let mut tracer = Tracer::new();
            let traced = serve_load::replay(&responses, &cache, seconds * 0.25, &mut tracer)?;
            let k = plain.service.len().min(traced.service.len());
            let total = |r: &serve_load::Replayed| r.service[..k].iter().map(|s| s.0).sum::<f64>();
            extras.trace_overhead = total(&traced) / total(&plain) - 1.0;
            extras.trace_mismatches = traced.mismatches;
            // Queue wait: the server's own time from admission to answer
            // minus the traced replay's time for the same steps (parse,
            // normalise, compute; not the request parse, which precedes
            // admission, nor the replay's cache I/O, which the timed
            // server does not do), on the requests the replay computed
            // rather than found in its cache.
            let service =
                tracer.op_ms_without(&["serve.proto", "serve.cache.load", "serve.cache.store"]);
            let waits: Vec<f64> = responses
                .iter()
                .zip(&traced.service)
                .enumerate()
                .filter(|(_, (r, (_, hit)))| r.ok && !hit)
                .filter_map(|(op, (r, _))| {
                    let service_ms = service.get(&(op as u64))?;
                    Some((r.elapsed_ms - service_ms).max(0.0))
                })
                .collect();
            extras.queue_wait_p50_ms = stats::quantile(&waits, 0.5);
            extras.queue_wait_p99_ms = stats::quantile(&waits, 0.99);
            // Admission lag: the client's latency minus the server's own
            // time, i.e. reading, admitting and writing the answer.
            let lags: Vec<f64> = responses
                .iter()
                .map(|r| {
                    (r.at.duration_since(r.sent.released).as_secs_f64() * 1e3 - r.elapsed_ms)
                        .max(0.0)
                })
                .collect();
            extras.admit_lag_p99_ms = stats::quantile(&lags, 0.99);
            extras.slo_attainment = m.slo_attainment.unwrap_or(0.0);
            (m, tracer)
        }
        None => {
            let limit = (!args.smoke).then_some(seconds * 0.5);
            let m = workload::closed_loop(workload, &prep, limit, true, None);
            let t0 = Instant::now();
            let (tracer, replayed, mismatches) =
                workload::traced_replay(workload, &prep, &m, limit);
            let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
            let plain_ms: f64 = m.answers[..replayed].iter().map(|(_, ms)| ms).sum();
            extras.trace_overhead = traced_ms / plain_ms - 1.0;
            extras.trace_mismatches = mismatches;
            (m, tracer)
        }
    };
    extras.generator_lag_p99_ms = m.generator_lag_p99_ms;
    let spans_path = work_dir().join(format!("spans-{}-{}.jsonl", workload.name(), args.seed));
    std::fs::create_dir_all(work_dir())
        .and_then(|()| std::fs::write(&spans_path, tracer.to_jsonl()))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let metrics = trace::per_layer_metrics(&tracer, &extras);
    let mut notes = vec![format!("spans written to {}", spans_path.display())];
    notes.extend(mismatch_notes(&m));
    if extras.trace_mismatches > 0 {
        notes.push(format!(
            "MISMATCH {} traced answers differ from the untraced ones",
            extras.trace_mismatches
        ));
    }
    let correct = m.failed == 0 && extras.trace_mismatches == 0;
    report::emit(
        &header(workload, args, seconds),
        &notes,
        &metrics,
        correct,
        m.attempted,
        m.failed,
    );
    Ok(correct)
}
