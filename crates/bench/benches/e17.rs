//! E17: the interned compact state representation.
//!
//! Runs the E16 workload family (the heaviest litmus entries plus every
//! shipped `programs/*.tsl`) through the production interned engine and
//! the retained pre-interning reference engine, both at `jobs = 1` (the
//! sequential DFS paths the optimisation targets). Before timing
//! anything it prints a states-per-second table, asserts that the two
//! engines produce bit-identical behaviour sets, visit counts and race
//! verdicts (a soundness regression fails the bench run itself), and
//! writes the measured throughput to `BENCH_E17.json` (path overridable
//! via the `BENCH_E17_OUT` environment variable).
//!
//! `cargo bench --bench e17 -- --test` runs the smoke mode: the same
//! differential assertions and JSON emission from single fast runs,
//! skipping the timing loops and the timing gates (CI machines are
//! noisy; the gates are for the curated full run).
//!
//! Both modes also exercise the observability layer: a calibrated
//! corpus pass measures the enabled collector's wall-time cost against
//! a disabled one (gated at 3% in the full run only; smoke mode reports
//! it), the interner probe/hit/collision counters must show the
//! interning actually paying off (every state revisit is a cheap probe
//! hit, load factor capped at 3/4), and the full counter snapshot lands
//! in the JSON report under `"stats"`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use transafety_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

use transafety::interleaving::{BudgetGuard, ExploreMetrics, ExploreStats};
use transafety::lang::{parse_program, ExploreOptions, Program, ProgramExplorer};
use transafety::{Budget, CancelToken};

/// The E16 workload family: heaviest litmus entries + `programs/*.tsl`.
fn corpus() -> Vec<(String, Program)> {
    let mut corpus: Vec<(String, Program)> = Vec::new();
    for name in ["iriw", "wrc", "dekker-core", "mp-spin"] {
        let l = transafety::litmus::by_name(name).expect("corpus name");
        corpus.push((name.to_string(), l.parse().program));
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("programs/ directory exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tsl"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("readable program file");
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        corpus.push((
            name,
            parse_program(&src).expect("valid .tsl program").program,
        ));
    }
    corpus
}

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// One engine run: behaviour search + race search at `jobs = 1`,
/// returning the elapsed wall time and the states the searches visited.
fn run_engine(ex: &ProgramExplorer<'_>, opts: &ExploreOptions, interned: bool) -> RunStats {
    let guard = BudgetGuard::new(&Budget::unlimited(), CancelToken::new());
    let start = Instant::now();
    let (behaviours, witness) = if interned {
        (
            ex.behaviours_governed(opts, &guard),
            ex.race_witness_governed(opts, &guard),
        )
    } else {
        (
            ex.behaviours_reference_governed(opts, &guard),
            ex.race_witness_reference_governed(opts, &guard),
        )
    };
    RunStats {
        elapsed: start.elapsed(),
        states: guard.states(),
        behaviours,
        racy: witness.is_some(),
    }
}

struct RunStats {
    elapsed: Duration,
    states: usize,
    behaviours: transafety::lang::Bounded<transafety::interleaving::Behaviours>,
    racy: bool,
}

/// Best-of-N wall time for one engine (the differential outputs are
/// checked on every run).
fn best_of(ex: &ProgramExplorer<'_>, opts: &ExploreOptions, interned: bool, n: usize) -> RunStats {
    let mut best = run_engine(ex, opts, interned);
    for _ in 1..n {
        let next = run_engine(ex, opts, interned);
        assert_eq!(next.behaviours, best.behaviours, "non-deterministic engine");
        if next.elapsed < best.elapsed {
            best.elapsed = next.elapsed;
        }
    }
    best
}

/// One full corpus pass through the production engine with the given
/// collector riding on every guard, returning the aggregate wall time.
fn corpus_pass(
    corpus: &[(String, Program)],
    opts: &ExploreOptions,
    collector: &std::sync::Arc<ExploreMetrics>,
) -> Duration {
    let start = Instant::now();
    for (_, p) in corpus {
        let ex = ProgramExplorer::new(p);
        let guard =
            BudgetGuard::with_metrics(&Budget::unlimited(), CancelToken::new(), collector.clone());
        black_box(ex.behaviours_governed(opts, &guard));
        black_box(ex.race_witness_governed(opts, &guard));
    }
    start.elapsed()
}

/// Measures the wall-time cost of a live collector against the
/// disabled singleton. Overhead this small drowns in scheduler noise
/// on a loaded machine, so the measurement interleaves many short
/// calibrated off/on pass pairs and compares the minima: the min of a
/// large alternating population is robust to drift that would bias a
/// few long back-to-back timings. Returns `(overhead_fraction,
/// per-pass counter snapshot)`.
fn measure_metrics_overhead(corpus: &[(String, Program)], reps: usize) -> (f64, ExploreStats) {
    let opts = ExploreOptions::default();
    let probe = corpus_pass(corpus, &opts, &ExploreMetrics::disabled());
    let iters = usize::try_from(
        (Duration::from_millis(100).as_nanos() / probe.as_nanos().max(1)).clamp(1, 128),
    )
    .expect("clamped iteration count fits");
    let timed_pass = |collector: &std::sync::Arc<ExploreMetrics>| -> Duration {
        (0..iters)
            .map(|_| corpus_pass(corpus, &opts, collector))
            .min()
            .expect("at least one calibrated pass")
    };
    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    for _ in 0..reps {
        best_off = best_off.min(timed_pass(&ExploreMetrics::disabled()));
        best_on = best_on.min(timed_pass(&ExploreMetrics::collector()));
    }
    let overhead = best_on.as_secs_f64() / best_off.as_secs_f64().max(1e-9) - 1.0;
    // The report wants per-pass counters, not `reps * iters` passes
    // merged: one untimed instrumented pass with a fresh collector.
    let collector = ExploreMetrics::collector();
    corpus_pass(corpus, &opts, &collector);
    (overhead, collector.snapshot())
}

/// The interning-quality claim, read off the counters: the interner is
/// doing real dedup work (hits), stays under its 3/4 load-factor cap,
/// and chains stay short enough that probing is cheap on average.
fn assert_interning_quality(stats: &ExploreStats) {
    assert!(stats.enabled, "overhead pass ran with a dead collector");
    assert!(stats.intern_keys > 0, "corpus pass interned nothing");
    assert!(
        stats.intern_hits > 0,
        "no probe hits: the interner never deduplicated a revisit"
    );
    assert!(
        stats.intern_keys <= stats.intern_probes,
        "more keys than probes"
    );
    let lf = stats.load_factor();
    assert!(
        lf > 0.0 && lf <= 0.75,
        "load factor {lf} outside (0, 3/4]: growth policy regressed"
    );
    // Collision chains: with FxHash + the 3/4 growth cap, the average
    // probe should walk well under two extra slots on this corpus.
    assert!(
        stats.intern_collisions < 2 * stats.intern_probes,
        "collision chains dominate probing ({} collisions over {} probes)",
        stats.intern_collisions,
        stats.intern_probes
    );
}

/// Peak resident set of this process in kilobytes (`VmHWM`), if the
/// platform exposes it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

struct Row {
    name: String,
    states: usize,
    interned_sps: f64,
    reference_sps: f64,
}

/// The optimisation's primary claim, checked and printed before any
/// timing: identical observables, more states per second. Returns the
/// per-program throughput rows for the JSON report.
fn throughput_table(corpus: &[(String, Program)], reps: usize) -> Vec<Row> {
    let opts = ExploreOptions::default();
    println!(
        "\nE17/interned_throughput (behaviours + race search, jobs=1)\n\
         {:<22} {:>9} {:>14} {:>14} {:>9}",
        "program", "states", "interned st/s", "reference st/s", "speedup"
    );
    let mut rows = Vec::new();
    for (name, p) in corpus {
        let ex = ProgramExplorer::new(p);
        let new = best_of(&ex, &opts, true, reps);
        let old = best_of(&ex, &opts, false, reps);
        assert_eq!(
            new.behaviours, old.behaviours,
            "{name}: interning changed the behaviour set"
        );
        assert_eq!(
            new.states, old.states,
            "{name}: interning changed the states-visited count"
        );
        assert_eq!(
            new.racy, old.racy,
            "{name}: interning changed the race verdict"
        );
        let sps = |r: &RunStats| r.states as f64 / r.elapsed.as_secs_f64().max(1e-9);
        let (new_sps, old_sps) = (sps(&new), sps(&old));
        println!(
            "{:<22} {:>9} {:>14.0} {:>14.0} {:>8.2}x",
            name,
            new.states,
            new_sps,
            old_sps,
            new_sps / old_sps
        );
        rows.push(Row {
            name: name.clone(),
            states: new.states,
            interned_sps: new_sps,
            reference_sps: old_sps,
        });
    }
    println!();
    rows
}

/// Writes the measured throughput as a small hand-rolled JSON report
/// (the offline build has no serde).
fn write_report(rows: &[Row], speedup: f64, smoke: bool, overhead: f64, stats: &ExploreStats) {
    let path = std::env::var("BENCH_E17_OUT").unwrap_or_else(|_| "BENCH_E17.json".to_string());
    let mut out = String::from("{\n  \"experiment\": \"E17\",\n  \"jobs\": 1,\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    if let Some(kb) = peak_rss_kb() {
        out.push_str(&format!("  \"peak_rss_kb\": {kb},\n"));
    }
    out.push_str(&format!(
        "  \"metrics_overhead_fraction\": {overhead:.4},\n  \"stats\": {},\n",
        stats.to_json()
    ));
    out.push_str(&format!(
        "  \"aggregate_speedup\": {speedup:.3},\n  \"programs\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"states\": {}, \"interned_states_per_sec\": {:.0}, \
             \"reference_states_per_sec\": {:.0}}}{}\n",
            r.name,
            r.states,
            r.interned_sps,
            r.reference_sps,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out).expect("writable BENCH_E17.json path");
    println!("E17 report written to {path}");
}

/// Aggregate speedup over the corpus: total states per total second,
/// interned over reference (time-weighted, so the heavy entries — the
/// ones the optimisation is for — dominate).
fn aggregate_speedup(rows: &[Row]) -> f64 {
    let total =
        |f: fn(&Row) -> f64| -> f64 { rows.iter().map(|r| r.states as f64 / f(r)).sum::<f64>() };
    // seconds spent per engine = Σ states / (states/sec)
    total(|r| r.reference_sps) / total(|r| r.interned_sps).max(1e-9)
}

/// `BENCH_E17_ONLY=interned|reference`: run a single engine over the
/// corpus and report this process's peak RSS — because both engines
/// normally run in one process, a per-engine memory figure needs a
/// dedicated run (used for the EXPERIMENTS.md before/after numbers).
fn single_engine_rss(corpus: &[(String, Program)], which: &str) {
    let interned = match which {
        "interned" => true,
        "reference" => false,
        other => panic!("BENCH_E17_ONLY must be interned|reference, got {other}"),
    };
    let opts = ExploreOptions::default();
    let mut states = 0usize;
    for (_, p) in corpus {
        let ex = ProgramExplorer::new(p);
        states += run_engine(&ex, &opts, interned).states;
    }
    println!(
        "E17/{which}: {states} states, peak RSS {} kB",
        peak_rss_kb().map_or_else(|| "?".to_string(), |kb| kb.to_string())
    );
}

fn interned_vs_reference(c: &mut Criterion) {
    let corpus = corpus();
    if let Ok(which) = std::env::var("BENCH_E17_ONLY") {
        single_engine_rss(&corpus, &which);
        return;
    }
    let smoke = smoke_mode();
    let rows = throughput_table(&corpus, if smoke { 1 } else { 3 });
    let speedup = aggregate_speedup(&rows);
    println!("E17 aggregate speedup (jobs=1): {speedup:.2}x");
    let (overhead, stats) = measure_metrics_overhead(&corpus, if smoke { 15 } else { 25 });
    println!(
        "E17 metrics overhead: {:+.2}% wall time with a live collector \
         ({} probes, {} hits, {} collisions, load factor {:.3})",
        overhead * 100.0,
        stats.intern_probes,
        stats.intern_hits,
        stats.intern_collisions,
        stats.load_factor()
    );
    assert_interning_quality(&stats);
    write_report(&rows, speedup, smoke, overhead, &stats);
    if smoke {
        // smoke mode: deterministic assertions + report only; its 15
        // short passes are too noisy for the timing gates below
        return;
    }
    assert!(
        overhead <= 0.03,
        "metrics collector costs {:.2}% wall time (bound: 3%)",
        overhead * 100.0
    );
    assert!(
        speedup >= 2.0,
        "interned engine must be >= 2x the reference on the corpus DFS paths, got {speedup:.2}x"
    );
    let opts = ExploreOptions::default();
    let mut group = c.benchmark_group("E17/behaviours_jobs1");
    for (name, p) in &corpus {
        for (tag, interned) in [("interned", true), ("reference", false)] {
            group.bench_with_input(BenchmarkId::new(tag, name), p, |b, p| {
                let ex = ProgramExplorer::new(black_box(p));
                b.iter(|| run_engine(&ex, &opts, interned).behaviours.value.len())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, interned_vs_reference);
criterion_main!(benches);
