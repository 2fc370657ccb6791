//! E21b: the SC-first race and behaviour phases under TSO and PSO (the
//! letter keeps it apart from the E21 fuzzing soak, which writes no
//! report file).
//!
//! §5 proves that write→read reordering and read-after-write
//! elimination preserve data race freedom, and §8 that they are all TSO
//! adds to SC, so a program races on the buffered machines iff it races
//! under SC. `Analysis` therefore answers the race question under
//! `--model tso|pso` with the SC race search (reduced, and exact on
//! loops) and lifts its witness to the machine, instead of running the
//! unreduced, fuel-bounded buffered race search. A program that search
//! proves race free has the same behaviours on the buffered machines as
//! under SC, so `Analysis::run` then takes its behaviour set from the
//! SC behaviour search instead of the buffered engine.
//!
//! This bench runs both race searches and both behaviour phases over
//! the litmus corpus and generated wide programs (3–4 threads, racy and
//! lock-disciplined: the `check-large` shapes of the end-to-end
//! benchmark) under TSO and PSO, and records the states each visits.
//! The gates are all on deterministic state counts, so they run in the
//! smoke mode too:
//!
//! - the SC-first race phase visits exactly the states the SC race
//!   search visits, on every program;
//! - the aggregate buffered / SC-first race-phase state ratio is at
//!   least 3.0;
//! - on every program whose buffered behaviour set is complete, the
//!   behaviour set of `Analysis::run` equals it (the SC search's on a
//!   race free program);
//! - over the race free programs, the aggregate buffered / SC-first
//!   behaviour-phase state ratio is at least 1.15.
//!
//! A buffered witness is conclusive, so wherever the buffered search
//! finds a race the SC-first phase must find one too. The table is
//! written to `BENCH_E21.json` (path overridable via the `BENCH_E21_OUT`
//! environment variable).
//!
//! `cargo bench --bench sc_first -- --test` runs the smoke mode: the
//! same assertions and JSON emission, skipping the timing loops.

use std::hint::black_box;
use transafety_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

use transafety::checker::Analysis;
use transafety::interleaving::{Behaviours, BudgetGuard, ExploreMetrics};
use transafety::lang::{Bounded, ExploreOptions, MemoryModel, ModelExplorer, Program};
use transafety::litmus::{corpus, random_program, GeneratorConfig};
use transafety::traces::MemoryModelKind;
use transafety::tso::{PsoModel, TsoModel};
use transafety::{Budget, CancelToken};

/// Generated programs per wide shape.
const PER_SHAPE: u64 = 6;

/// The aggregate buffered / SC-first race-phase state-ratio gate.
const RATIO_GATE: f64 = 3.0;

/// The aggregate buffered / SC-first behaviour-phase state-ratio gate,
/// over the race free programs.
const BEHAVIOUR_RATIO_GATE: f64 = 1.15;

/// The litmus corpus, then the generated wide programs.
fn programs() -> Vec<(String, Program)> {
    let wide = |threads, stmts_per_thread, base: GeneratorConfig| GeneratorConfig {
        threads,
        stmts_per_thread,
        ..base
    };
    let shapes = [
        ("3x4-racy", wide(3, 4, GeneratorConfig::default())),
        ("3x4-locked", wide(3, 4, GeneratorConfig::drf())),
        ("3x5-racy", wide(3, 5, GeneratorConfig::default())),
        ("4x3-locked", wide(4, 3, GeneratorConfig::drf())),
    ];
    let mut out: Vec<(String, Program)> = corpus()
        .into_iter()
        .map(|l| (l.name.to_string(), l.parse().program))
        .collect();
    for (shape, config) in &shapes {
        for seed in 0..PER_SHAPE {
            out.push((format!("{shape}-{seed}"), random_program(seed, config)));
        }
    }
    out
}

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

struct Row {
    name: String,
    model: MemoryModelKind,
    buffered: u64,
    sc_first: u64,
    sc: u64,
    buffered_racy: bool,
    sc_first_racy: bool,
    /// States the buffered behaviour engine visits.
    buffered_behaviours: u64,
    /// States the behaviour phase of `Analysis::run` visits.
    sc_first_behaviours: u64,
    /// `run` reported the buffered set, or the buffered set is bounded.
    behaviours_agree: bool,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.buffered as f64 / self.sc_first.max(1) as f64
    }

    fn behaviour_ratio(&self) -> f64 {
        self.buffered_behaviours as f64 / self.sc_first_behaviours.max(1) as f64
    }
}

/// States visited by the buffered race search, and whether it found a
/// race.
fn buffered_race<M: MemoryModel>(machine: &M) -> (u64, bool) {
    let collector = ExploreMetrics::collector();
    let guard =
        BudgetGuard::with_metrics(&Budget::unlimited(), CancelToken::new(), collector.clone());
    let racy = ModelExplorer::new(machine)
        .race_witness_governed(&ExploreOptions::default(), &guard)
        .is_some();
    (collector.snapshot().states_visited, racy)
}

/// States visited by the buffered behaviour engine, and its set.
fn buffered_behaviours<M: MemoryModel>(machine: &M) -> (u64, Bounded<Behaviours>) {
    let collector = ExploreMetrics::collector();
    let guard =
        BudgetGuard::with_metrics(&Budget::unlimited(), CancelToken::new(), collector.clone());
    let set = ModelExplorer::new(machine).behaviours_governed(&ExploreOptions::default(), &guard);
    (collector.snapshot().states_visited, set)
}

/// States visited by the behaviour phase of `Analysis::run` under
/// `model` (the run's states less its race phase's), and its set.
fn behaviour_phase(
    program: &Program,
    model: MemoryModelKind,
    race_states: u64,
) -> (u64, Bounded<Behaviours>) {
    let report = Analysis::new().model(model).metrics(true).run(program);
    (report.stats.states_visited - race_states, report.behaviours)
}

/// States visited by `Analysis::races` under `model`, and whether it
/// found a race.
fn race_phase(program: &Program, model: MemoryModelKind) -> (u64, bool) {
    let report = Analysis::new().model(model).metrics(true).races(program);
    assert!(
        report.completeness.is_complete(),
        "{model}: race phase truncated"
    );
    (report.stats.states_visited, report.output.is_some())
}

fn measure(corpus: &[(String, Program)]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, p) in corpus {
        let (sc, _) = race_phase(p, MemoryModelKind::Sc);
        for model in [MemoryModelKind::Tso, MemoryModelKind::Pso] {
            let ((buffered, buffered_racy), (buffered_behaviours, buffered_set)) = match model {
                MemoryModelKind::Tso => {
                    let tso = TsoModel::new(p);
                    (buffered_race(&tso), buffered_behaviours(&tso))
                }
                _ => {
                    let pso = PsoModel::new(p);
                    (buffered_race(&pso), buffered_behaviours(&pso))
                }
            };
            let (sc_first, sc_first_racy) = race_phase(p, model);
            let (sc_first_behaviours, set) = behaviour_phase(p, model, sc_first);
            rows.push(Row {
                name: name.clone(),
                model,
                buffered,
                sc_first,
                sc,
                buffered_racy,
                sc_first_racy,
                buffered_behaviours,
                sc_first_behaviours,
                behaviours_agree: !buffered_set.complete || set == buffered_set,
            });
        }
    }
    rows
}

/// Total buffered states over total SC-first states, race phase then
/// behaviour phase, so the heavy programs dominate.
fn aggregate_ratio<'a>(rows: impl Iterator<Item = &'a Row> + Clone) -> (f64, f64) {
    let sum = |f: fn(&Row) -> u64| rows.clone().map(f).sum::<u64>().max(1) as f64;
    (
        sum(|r| r.buffered) / sum(|r| r.sc_first),
        sum(|r| r.buffered_behaviours) / sum(|r| r.sc_first_behaviours),
    )
}

/// The rows whose behaviour phase is the SC search: the race free ones.
fn race_free(rows: &[Row]) -> impl Iterator<Item = &Row> + Clone {
    rows.iter().filter(|r| !r.sc_first_racy)
}

fn print_table(rows: &[Row]) {
    println!(
        "\nE21b/phase_states (sequential, gated)\n{:<26} {:>5} {:>10} {:>10} {:>8}  {:>10} {:>10} {:>8}  racy",
        "program", "model", "buffered", "sc-first", "ratio", "buf-behav", "sc-behav", "ratio"
    );
    for r in rows {
        println!(
            "{:<26} {:>5} {:>10} {:>10} {:>7.2}x  {:>10} {:>10} {:>7.2}x  {}/{}",
            r.name,
            r.model,
            r.buffered,
            r.sc_first,
            r.ratio(),
            r.buffered_behaviours,
            r.sc_first_behaviours,
            r.behaviour_ratio(),
            r.buffered_racy,
            r.sc_first_racy
        );
    }
}

/// Writes the measured table as a small hand-rolled JSON report (the
/// offline build has no serde).
fn write_report(rows: &[Row], gates: (f64, f64), smoke: bool) {
    let path = std::env::var("BENCH_E21_OUT").unwrap_or_else(|_| "BENCH_E21.json".to_string());
    let mut out = String::from("{\n  \"experiment\": \"E21b\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"aggregate_ratio\": {:.3},\n", gates.0));
    out.push_str(&format!(
        "  \"aggregate_behaviour_ratio_race_free\": {:.3},\n",
        gates.1
    ));
    for model in [MemoryModelKind::Tso, MemoryModelKind::Pso] {
        let (races, _) = aggregate_ratio(rows.iter().filter(|r| r.model == model));
        let (_, behaviours) = aggregate_ratio(race_free(rows).filter(|r| r.model == model));
        out.push_str(&format!("  \"aggregate_ratio_{model}\": {races:.3},\n"));
        out.push_str(&format!(
            "  \"aggregate_behaviour_ratio_race_free_{model}\": {behaviours:.3},\n"
        ));
    }
    out.push_str(&format!("  \"ratio_gate\": {RATIO_GATE:.1},\n"));
    out.push_str(&format!(
        "  \"behaviour_ratio_gate\": {BEHAVIOUR_RATIO_GATE:.2},\n"
    ));
    out.push_str("  \"programs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"model\": \"{}\", \"buffered_states\": {}, \
             \"sc_first_states\": {}, \"sc_states\": {}, \"ratio\": {:.3}, \
             \"buffered_racy\": {}, \"sc_first_racy\": {}, \
             \"buffered_behaviour_states\": {}, \"sc_first_behaviour_states\": {}, \
             \"behaviour_ratio\": {:.3}}}{}\n",
            r.name,
            r.model,
            r.buffered,
            r.sc_first,
            r.sc,
            r.ratio(),
            r.buffered_racy,
            r.sc_first_racy,
            r.buffered_behaviours,
            r.sc_first_behaviours,
            r.behaviour_ratio(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out).expect("writable BENCH_E21.json path");
    println!("E21b report written to {path}");
}

fn sc_first_phases(c: &mut Criterion) {
    let corpus = programs();
    let rows = measure(&corpus);
    print_table(&rows);
    for r in &rows {
        assert_eq!(
            r.sc_first, r.sc,
            "{} [{}]: the SC-first phase visited other states than the SC race search",
            r.name, r.model
        );
        assert!(
            !r.buffered_racy || r.sc_first_racy,
            "{} [{}]: the buffered search found a race the SC-first phase missed",
            r.name,
            r.model
        );
        assert!(
            r.behaviours_agree,
            "{} [{}]: the run's behaviour set differs from the complete buffered set",
            r.name, r.model
        );
    }
    let (race_ratio, _) = aggregate_ratio(rows.iter());
    let (_, behaviour_ratio) = aggregate_ratio(race_free(&rows));
    println!(
        "\nE21b aggregate buffered / SC-first race-phase states: {race_ratio:.2}x (gate: >= {RATIO_GATE}x)"
    );
    println!(
        "E21b aggregate buffered / SC-first behaviour-phase states, race free programs: \
         {behaviour_ratio:.2}x (gate: >= {BEHAVIOUR_RATIO_GATE}x)"
    );
    assert!(
        race_ratio >= RATIO_GATE,
        "the SC-first race phase must visit >= {RATIO_GATE}x fewer states, got {race_ratio:.2}x"
    );
    assert!(
        behaviour_ratio >= BEHAVIOUR_RATIO_GATE,
        "the SC-first behaviour phase must visit >= {BEHAVIOUR_RATIO_GATE}x fewer states on \
         race free programs, got {behaviour_ratio:.2}x"
    );
    write_report(&rows, (race_ratio, behaviour_ratio), smoke_mode());
    if smoke_mode() {
        return; // smoke mode: assertions + report only, no timing loops
    }
    let mut group = c.benchmark_group("E21b/races/tso");
    for (name, p) in corpus.iter().filter(|(n, _)| n.contains("locked")).take(2) {
        group.bench_with_input(BenchmarkId::new("buffered", name), p, |b, p| {
            b.iter(|| buffered_race(&TsoModel::new(black_box(p))))
        });
        group.bench_with_input(BenchmarkId::new("sc-first", name), p, |b, p| {
            b.iter(|| race_phase(black_box(p), MemoryModelKind::Tso))
        });
    }
    group.finish();
    let mut group = c.benchmark_group("E21b/behaviours/tso");
    for (name, p) in corpus.iter().filter(|(n, _)| n.contains("locked")).take(2) {
        group.bench_with_input(BenchmarkId::new("buffered", name), p, |b, p| {
            b.iter(|| buffered_behaviours(&TsoModel::new(black_box(p))))
        });
        group.bench_with_input(BenchmarkId::new("sc-first", name), p, |b, p| {
            b.iter(|| {
                Analysis::new()
                    .model(MemoryModelKind::Tso)
                    .run(black_box(p))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, sc_first_phases);
criterion_main!(benches);
