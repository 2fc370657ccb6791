//! Invariants of the exploration observability layer, over the litmus
//! corpus and hundreds of generated programs:
//!
//! - metrics are an *observer*: verdicts, behaviours, witnesses and
//!   state counts are bit-identical with the collector on or off;
//! - `states_visited == states_interned` on complete runs (every
//!   governed phase admits exactly one dedup key per visited state),
//!   and `states_visited <= states_interned` always (keys can be
//!   admitted before a budget trip stops the visit);
//! - the partial-order reduction never *increases* `states_visited`;
//! - parallel runs agree with sequential runs on the totals;
//! - sequential TSO/PSO runs repeat every counter exactly, interner
//!   collisions included;
//! - a `Truncated` report carries a non-zero trip counter matching the
//!   reported truncation cause.

mod support;

use std::time::Duration;

use support::{capped_budget, configs_with_loops as configs, default_por, seeds};
use transafety::checker::Analysis;
use transafety::interleaving::ExploreStats;
use transafety::lang::Program;
use transafety::litmus::{corpus, random_program};
use transafety::traces::MemoryModelKind;
use transafety::{
    AnalysisReport, Budget, BudgetBound, CancelToken, Completeness, TruncationReason, Verdict,
};

fn run(
    program: &Program,
    por: bool,
    jobs: usize,
    budget: &Budget,
    metrics: bool,
) -> AnalysisReport {
    Analysis::new()
        .jobs(jobs)
        .por(por)
        .budget(*budget)
        .metrics(metrics)
        .run(program)
}

/// The per-run counter invariants every collected report must satisfy.
fn assert_well_formed(report: &AnalysisReport, what: &str) {
    let s = &report.stats;
    assert!(s.enabled, "{what}: collector was requested but not live");
    assert!(
        s.states_visited <= s.states_interned,
        "{what}: visited {} > interned {}",
        s.states_visited,
        s.states_interned
    );
    if report.completeness.is_complete() {
        assert_eq!(
            s.states_visited, s.states_interned,
            "{what}: complete run must intern exactly the visited states"
        );
    }
    assert!(
        s.intern_keys <= s.intern_probes,
        "{what}: more interner keys than probes"
    );
    assert!(
        s.intern_keys <= s.intern_slots,
        "{what}: interner load factor above 1"
    );
    let lf = s.load_factor();
    assert!(
        lf.is_finite() && (0.0..=1.0).contains(&lf),
        "{what}: load factor {lf} out of range"
    );
    if let Completeness::Truncated { reason } = report.completeness {
        let (counter, name) = match reason {
            TruncationReason::BudgetExceeded(BudgetBound::WallClock) => {
                (s.trip_wall_clock, "trip_wall_clock")
            }
            TruncationReason::BudgetExceeded(BudgetBound::States) => (s.trip_states, "trip_states"),
            TruncationReason::BudgetExceeded(BudgetBound::Interleavings) => {
                (s.trip_interleavings, "trip_interleavings")
            }
            TruncationReason::BudgetExceeded(BudgetBound::Actions) => {
                (s.trip_actions, "trip_actions")
            }
            TruncationReason::Cancelled => (s.trip_cancelled, "trip_cancelled"),
        };
        assert!(counter > 0, "{what}: truncated by {reason} but {name} == 0");
    }
}

/// The observer property: everything the analysis *reports* is
/// untouched by the collector.
fn assert_observer(with: &AnalysisReport, without: &AnalysisReport, what: &str) {
    assert_eq!(with.verdict, without.verdict, "{what}: verdict");
    assert_eq!(with.behaviours, without.behaviours, "{what}: behaviours");
    assert_eq!(with.race, without.race, "{what}: race witness");
    assert_eq!(
        with.completeness, without.completeness,
        "{what}: completeness"
    );
    assert_eq!(
        without.stats,
        ExploreStats::default(),
        "{what}: metrics-off run leaked a live collector"
    );
}

#[test]
fn metrics_are_inert_observers_on_the_corpus() {
    let budget = Budget::unlimited();
    for litmus in corpus() {
        let program = litmus.parse().program;
        for jobs in [1, 4] {
            let what = format!("litmus {} jobs={jobs}", litmus.name);
            let with = run(&program, default_por(), jobs, &budget, true);
            let without = run(&program, default_por(), jobs, &budget, false);
            assert_well_formed(&with, &what);
            assert_observer(&with, &without, &what);
            let census = |metrics| Analysis::new().jobs(jobs).metrics(metrics).census(&program);
            let (with, without) = (census(true), census(false));
            assert_eq!(with.output, without.output, "{what}: reachable states");
            assert_eq!(
                with.completeness, without.completeness,
                "{what}: census completeness"
            );
            assert_eq!(
                without.stats,
                ExploreStats::default(),
                "{what}: metrics-off census leaked a live collector"
            );
        }
    }
}

#[test]
fn visited_equals_interned_on_generated_programs() {
    let configs = configs();
    let budget = capped_budget();
    for seed in 0..seeds() {
        let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
        let program = random_program(seed, config);
        for jobs in [1, 4] {
            let what = format!("seed {seed} jobs={jobs}");
            let report = run(&program, default_por(), jobs, &budget, true);
            assert_well_formed(&report, &what);
        }
    }
}

#[test]
fn por_never_increases_visited_states() {
    let configs = configs();
    let budget = capped_budget();
    for seed in 0..seeds() {
        let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
        let program = random_program(seed, config);
        let what = format!("seed {seed}");
        let reduced = run(&program, true, 1, &budget, true);
        let full = run(&program, false, 1, &budget, true);
        assert_well_formed(&reduced, &format!("{what} [por]"));
        assert_well_formed(&full, &format!("{what} [no-por]"));
        if reduced.completeness.is_complete() && full.completeness.is_complete() {
            assert!(
                reduced.stats.states_visited <= full.stats.states_visited,
                "{what}: POR visited more states ({} > {})",
                reduced.stats.states_visited,
                full.stats.states_visited
            );
            // The reduction only ever prunes sibling moves.
            assert!(
                reduced.stats.moves_generated <= full.stats.moves_generated,
                "{what}: POR generated more moves"
            );
        }
        // POR accounting is exhaustive: every expansion is classified
        // as ample or full, and the full engine never reports one.
        assert_eq!(
            full.stats.por_ample_hits, 0,
            "{what}: unreduced run reported an ample hit"
        );
    }
}

#[test]
fn dpor_counters_are_consistent() {
    let configs = configs();
    let budget = capped_budget();
    for seed in 0..seeds() {
        let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
        let program = random_program(seed, config);
        // Cycle the three models across the seed range.
        let model = MemoryModelKind::ALL[usize::try_from(seed).unwrap() % 3];
        let what = format!("seed {seed} model={model}");
        let reduced = Analysis::new()
            .model(model)
            .por(true)
            .budget(budget)
            .metrics(true)
            .run(&program);
        let full = Analysis::new()
            .model(model)
            .por(false)
            .budget(budget)
            .metrics(true)
            .run(&program);
        assert_well_formed(&reduced, &format!("{what} [por]"));
        assert_well_formed(&full, &format!("{what} [no-por]"));
        // The dynamic reduction never inflates the visit count.
        if reduced.completeness.is_complete() && full.completeness.is_complete() {
            assert!(
                reduced.stats.states_visited <= full.stats.states_visited,
                "{what}: DPOR visited more states ({} > {})",
                reduced.stats.states_visited,
                full.stats.states_visited
            );
        }
        // With POR off every dpor counter is silent.
        for (counter, name) in [
            (full.stats.por_ample_hits, "por_ample_hits"),
            (full.stats.dpor_proviso_blocks, "dpor_proviso_blocks"),
            (full.stats.dpor_flush_ample_hits, "dpor_flush_ample_hits"),
            (full.stats.dpor_prev_carries, "dpor_prev_carries"),
        ] {
            assert_eq!(counter, 0, "{what}: unreduced run reported {name}");
        }
        // Flush-ample hits are a buffered-model phenomenon: SC has no
        // flush moves to single out.
        if model == MemoryModelKind::Sc {
            assert_eq!(
                reduced.stats.dpor_flush_ample_hits, 0,
                "{what}: SC reported a flush-ample hit"
            );
        }
        // Every flush-ample hit is also an ample hit, and every
        // proviso block is also a full expansion — the dpor counters
        // refine the por counters, never exceed them.
        assert!(
            reduced.stats.dpor_flush_ample_hits <= reduced.stats.por_ample_hits,
            "{what}: more flush-ample hits than ample hits"
        );
        assert!(
            reduced.stats.dpor_proviso_blocks <= reduced.stats.por_full_expansions,
            "{what}: more proviso blocks than full expansions"
        );
    }
}

#[test]
fn await_counters_are_consistent() {
    // The await-collapse counters: silent when the reduction is off,
    // live on spinning programs when it is on, and only ever counting
    // reads the collapse actually examined (every collapsed move is a
    // generated move that was dropped, so collapsed <= moves_generated).
    let spin = transafety::litmus::by_name("mp-spin")
        .expect("mp-spin litmus exists")
        .parse()
        .program;
    let budget = capped_budget();
    for model in MemoryModelKind::ALL {
        for jobs in [1, 4] {
            let what = format!("mp-spin model={model} jobs={jobs}");
            let on = Analysis::new()
                .model(model)
                .jobs(jobs)
                .awaits(true)
                .budget(budget)
                .metrics(true)
                .run(&spin);
            let off = Analysis::new()
                .model(model)
                .jobs(jobs)
                .awaits(false)
                .budget(budget)
                .metrics(true)
                .run(&spin);
            assert_well_formed(&on, &format!("{what} [awaits]"));
            assert_well_formed(&off, &format!("{what} [no-awaits]"));
            // With the reduction off both counters are silent.
            assert_eq!(
                off.stats.await_collapsed, 0,
                "{what}: unreduced run reported a collapse"
            );
            assert_eq!(
                off.stats.await_wakeups, 0,
                "{what}: unreduced run reported a wakeup"
            );
            // With it on, the spin loop must actually exercise both
            // sides of the collapse: failed re-reads dropped, and the
            // watched read that advances the spinner kept.
            assert!(
                on.stats.await_collapsed > 0,
                "{what}: spin program collapsed nothing"
            );
            assert!(
                on.stats.await_wakeups > 0,
                "{what}: spin program recorded no wakeup"
            );
            assert!(
                on.stats.await_collapsed <= on.stats.moves_generated,
                "{what}: collapsed more moves than were generated"
            );
            // The collapse makes the spin exploration exact where the
            // bounded engine trips its action fuel.
            assert!(
                on.completeness.is_complete(),
                "{what}: await-aware run truncated"
            );
            assert_eq!(on.stats.trip_actions, 0, "{what}: collapse tripped fuel");
            assert!(
                off.stats.trip_actions > 0,
                "{what}: bounded run never tripped"
            );
        }
    }
}

#[test]
fn await_counters_are_silent_on_await_free_programs() {
    // No recognised await loop anywhere in the default generator
    // output: the collapse must never fire, on any backend.
    let configs = configs();
    let budget = capped_budget();
    for seed in 0..60u64 {
        let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
        let program = random_program(seed, config);
        let model = MemoryModelKind::ALL[usize::try_from(seed).unwrap() % 3];
        let what = format!("seed {seed} model={model}");
        let report = Analysis::new()
            .model(model)
            .budget(budget)
            .metrics(true)
            .run(&program);
        assert_well_formed(&report, &what);
        assert_eq!(
            report.stats.await_collapsed, 0,
            "{what}: collapse fired without an await loop"
        );
        assert_eq!(
            report.stats.await_wakeups, 0,
            "{what}: wakeup recorded without an await loop"
        );
    }
}

#[test]
fn parallel_totals_agree_with_sequential() {
    let configs = configs();
    let budget = capped_budget();
    for seed in 0..seeds() {
        let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
        let program = random_program(seed, config);
        let what = format!("seed {seed}");
        let seq = run(&program, default_por(), 1, &budget, true);
        let par = run(&program, default_por(), 4, &budget, true);
        assert_eq!(
            seq.race.is_some(),
            par.race.is_some(),
            "{what}: race presence is schedule-dependent"
        );
        // Totals are only comparable when both runs completed and no
        // early exit fired: a racy program's parallel search cancels
        // its siblings the moment any worker finds a race, so the
        // explored prefix is schedule-dependent by design.
        if seq.verdict == Verdict::DrfProven && par.verdict == Verdict::DrfProven {
            assert_eq!(
                seq.stats.states_visited, par.stats.states_visited,
                "{what}: visited totals diverge across worker counts"
            );
            assert_eq!(
                seq.stats.states_interned, par.stats.states_interned,
                "{what}: interned totals diverge across worker counts"
            );
        }
    }
}

#[test]
fn interner_probe_chains_stay_short_at_every_job_count() {
    // The E17 interner-quality bound (collisions <= 2 × probes), held at
    // jobs 2 as well as jobs 1: the parallel drivers intern through 64
    // shards, and a shard choice that reuses the home slot's bits
    // inflates the mean probe chain by orders of magnitude without
    // changing a single answer.
    let configs = configs();
    let budget = capped_budget();
    for jobs in [1, 2] {
        for model in MemoryModelKind::ALL {
            let tally = |program: &Program| {
                let s = Analysis::new()
                    .model(model)
                    .jobs(jobs)
                    .por(default_por())
                    .budget(budget)
                    .metrics(true)
                    .run(program)
                    .stats;
                (s.intern_probes, s.intern_collisions)
            };
            let generated = (0..seeds()).map(|seed| {
                let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
                random_program(seed, config)
            });
            let (probes, collisions) = corpus()
                .iter()
                .map(|l| l.parse().program)
                .chain(generated)
                .map(|p| tally(&p))
                .fold((0u64, 0u64), |(p, c), (dp, dc)| (p + dp, c + dc));
            assert!(probes > 0, "{model} jobs={jobs}: nothing was interned");
            assert!(
                collisions <= 2 * probes,
                "{model} jobs={jobs}: mean probe chain {:.2} ({collisions} collisions over \
                 {probes} probes)",
                collisions as f64 / probes as f64
            );
        }
    }
}

/// A stats JSON line without its wall-clock (`*_nanos`) fields.
fn untimed_json(stats: &ExploreStats) -> String {
    stats
        .to_json()
        .split(',')
        .filter(|field| !field.split(':').next().unwrap_or("").ends_with("_nanos\""))
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn buffered_stats_are_deterministic_at_jobs_1() {
    // Every counter of a sequential TSO/PSO run — interner collisions
    // included — is a function of the program alone: two runs, each on
    // a fresh model, must report the same stats apart from timings. A
    // state hash keyed on anything run-dependent (an address, an id
    // handed out in a racy order) fails this.
    let configs = configs();
    // A state cap only: a wall-clock trip would make the explored
    // prefix timing-dependent.
    let budget = Budget::unlimited().max_states(200_000);
    let generated = (0..seeds()).map(|seed| {
        let config = &configs[usize::try_from(seed).unwrap() % configs.len()];
        (format!("seed {seed}"), random_program(seed, config))
    });
    let programs: Vec<(String, Program)> = corpus()
        .iter()
        .map(|l| (format!("litmus {}", l.name), l.parse().program))
        .chain(generated)
        .collect();
    for model in [MemoryModelKind::Tso, MemoryModelKind::Pso] {
        for (name, program) in &programs {
            let stats = || {
                let analysis = Analysis::new()
                    .model(model)
                    .jobs(1)
                    .por(default_por())
                    .budget(budget)
                    .metrics(true);
                untimed_json(&analysis.run(program).stats)
            };
            assert_eq!(
                stats(),
                stats(),
                "{name} model={model}: jobs-1 stats differ"
            );
        }
    }
}

#[test]
fn truncated_runs_report_their_trip_cause() {
    let program = transafety::lang::parse_program(
        "x := 1; x := 2; || r0 := x; r1 := x; print r0; || r2 := x; x := r2;",
    )
    .expect("fixture parses")
    .program;

    let capped = Analysis::new().max_states(1).metrics(true).run(&program);
    assert_eq!(
        capped.completeness,
        Completeness::Truncated {
            reason: TruncationReason::BudgetExceeded(BudgetBound::States)
        }
    );
    assert_well_formed(&capped, "state-capped");
    assert!(capped.stats.trip_states > 0);

    let timed_out = Analysis::new()
        .timeout(Duration::ZERO)
        .metrics(true)
        .run(&program);
    assert_eq!(
        timed_out.completeness,
        Completeness::Truncated {
            reason: TruncationReason::BudgetExceeded(BudgetBound::WallClock)
        }
    );
    assert_well_formed(&timed_out, "timed-out");
    assert!(timed_out.stats.trip_wall_clock > 0);

    let token = CancelToken::new();
    token.cancel();
    let cancelled = Analysis::new()
        .metrics(true)
        .run_with_cancel(&program, token);
    assert_eq!(
        cancelled.completeness,
        Completeness::Truncated {
            reason: TruncationReason::Cancelled
        }
    );
    assert_well_formed(&cancelled, "cancelled");
    assert!(cancelled.stats.trip_cancelled > 0);
}

#[test]
fn disabled_metrics_cost_nothing_and_record_nothing() {
    let program = corpus()
        .iter()
        .find(|l| l.name == "sb")
        .expect("store-buffering litmus exists")
        .parse()
        .program;
    let report = Analysis::new().run(&program);
    assert!(!report.stats.enabled);
    assert_eq!(report.stats, ExploreStats::default());
    assert_eq!(report.stats.trips_total(), 0);
    assert!(report.stats.events.is_empty());
}
