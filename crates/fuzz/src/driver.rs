//! The soak driver: sustained differential fuzzing, one case per item
//! of [`transafety_interleaving::par::parallel_map`].
//!
//! Each case derives a (program, pipeline, model) triple
//! deterministically from the master seed and the case index, runs the
//! [oracle](crate::oracle::check_pair) under the per-case budget inside
//! a `catch_unwind` fault boundary, and folds the outcome into the run's
//! [`FuzzStats`].  Divergences are minimised on the spot (violations
//! always; expected divergences up to a per-run witness cap, so a racy
//! corpus cannot turn the soak into a shrinking marathon).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use transafety_interleaving::par::parallel_map;
use transafety_interleaving::Budget;
use transafety_lang::Program;
use transafety_litmus::{random_program, GeneratorConfig, Rng};
use transafety_traces::MemoryModelKind;

use crate::oracle::{check_pair, OracleConfig, Outcome};
use crate::pipeline::{Pipeline, PipelineConfig};
use crate::seeded::{known_unsafe_cases, replay};
use crate::shrink::minimise;
use crate::stats::FuzzStats;
use crate::witness::Witness;

/// Configuration for one fuzzing run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Random (program, pipeline) cases to check (seeded cases run on
    /// top of this).
    pub pairs: u64,
    /// Master seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Models cycled across cases.
    pub models: Vec<MemoryModelKind>,
    /// Worker threads (cases are independent; each case runs its
    /// analyses single-threaded).
    pub jobs: usize,
    /// Per-side, per-case analysis budget.
    pub budget: Budget,
    /// Partial-order reduction toggle.
    pub por: bool,
    /// Pipeline generation knobs.
    pub pipeline: PipelineConfig,
    /// Oracle re-runs the minimiser may spend per divergence.
    pub shrink_attempts: usize,
    /// Expected-divergence witnesses to minimise and retain (violations
    /// are always minimised and retained).
    pub max_witnesses: usize,
    /// Skip the built-in seeded known-unsafe cases.
    pub skip_seeded: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            pairs: 1_000,
            seed: 0xD1FF,
            models: MemoryModelKind::ALL.to_vec(),
            jobs: transafety_interleaving::available_jobs(),
            budget: Budget::unlimited()
                .timeout(Duration::from_millis(100))
                .max_states(20_000),
            por: true,
            pipeline: PipelineConfig::default(),
            shrink_attempts: 400,
            max_witnesses: 8,
            skip_seeded: false,
        }
    }
}

/// The program-generator mix the soak draws from: the shared-corpus
/// shapes plus loop- and await-bearing programs.
#[must_use]
pub fn soak_generator_configs() -> Vec<GeneratorConfig> {
    vec![
        GeneratorConfig::default(),
        GeneratorConfig::drf(),
        GeneratorConfig::with_volatiles(),
        GeneratorConfig::with_loops(),
        GeneratorConfig::with_awaits(),
    ]
}

/// Deterministically derive case `index` of a run: the generator
/// config, program and pipeline are a pure function of
/// `(seed, index)`, so any case can be replayed in isolation.
#[must_use]
pub fn derive_case(seed: u64, index: u64, pipeline: &PipelineConfig) -> (Program, Pipeline) {
    let mut rng = Rng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let configs = soak_generator_configs();
    let config = &configs[rng.gen_range_usize(0, configs.len())];
    let program = random_program(rng.next_u64(), config);
    let pipe = Pipeline::random(&mut rng, pipeline);
    (program, pipe)
}

/// The result of one fuzzing run.
#[derive(Debug)]
pub struct SoakReport {
    /// Aggregated counters (seeded + random cases).
    pub stats: FuzzStats,
    /// Minimised refinement violations (must be empty on a healthy
    /// repo; non-empty fails the run).
    pub violations: Vec<Witness>,
    /// Minimised expected-divergence witnesses, capped at
    /// [`SoakConfig::max_witnesses`].
    pub witnesses: Vec<Witness>,
}

impl SoakReport {
    /// `true` when no violation, no panic and no missed seeded case was
    /// observed.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.stats.panics == 0 && self.stats.seeded_missed == 0
    }
}

fn witness_from(minimised: &crate::shrink::Minimised, model: MemoryModelKind) -> Witness {
    let applied = minimised.pipeline.apply(&minimised.program);
    Witness {
        program: minimised.program.clone(),
        pipeline: minimised.pipeline.clone(),
        rules: applied.applied.iter().map(|p| p.rule).collect(),
        model,
        violation: minimised.outcome.is_violation(),
    }
}

/// Run the seeded known-unsafe cases followed by `config.pairs` random
/// cases, fanned out over `config.jobs` threads by `parallel_map`.
#[must_use]
pub fn run_soak(config: &SoakConfig) -> SoakReport {
    let mut stats = FuzzStats::default();
    let violations = Vec::new();
    let mut witnesses = Vec::new();

    if !config.skip_seeded {
        for case in known_unsafe_cases() {
            let oracle = OracleConfig {
                model: case.model,
                budget: config.budget,
                jobs: 1,
                por: config.por,
            };
            let result = replay(&case, &oracle, config.shrink_attempts);
            stats.pairs_checked += 1;
            if result.detected {
                stats.seeded_detected += 1;
                stats.expected_divergences += 1;
                if let Some(m) = &result.minimised {
                    stats.shrink_steps += m.steps as u64;
                    stats.shrink_attempts += m.attempts as u64;
                    stats.witnesses_minimised += 1;
                    witnesses.push(witness_from(m, case.model));
                }
            } else {
                stats.seeded_missed += 1;
            }
        }
    }

    let shared = Mutex::new((stats, violations, witnesses));
    let witness_slots = AtomicUsize::new(config.max_witnesses);
    let models = if config.models.is_empty() {
        MemoryModelKind::ALL.to_vec()
    } else {
        config.models.clone()
    };

    let indices: Vec<u64> = (0..config.pairs).collect();
    parallel_map(config.jobs.max(1), &indices, |&index| {
        let model = models[(index % models.len() as u64) as usize];
        let oracle = OracleConfig {
            model,
            budget: config.budget,
            jobs: 1,
            por: config.por,
        };
        // The fault boundary: a panicking case must not take the run
        // down (nor be recomputed by the map) — it is counted and the
        // soak moves on, exactly like the serve worker boundary.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (program, pipeline) = derive_case(config.seed, index, &config.pipeline);
            let report = check_pair(&program, &pipeline, &oracle);
            let minimised = match &report.outcome {
                Outcome::Violation(_) => Some(minimise(
                    &program,
                    &pipeline,
                    &oracle,
                    |r| r.outcome.is_violation(),
                    config.shrink_attempts,
                )),
                Outcome::ExpectedDivergence(_) => {
                    // claim a witness slot before paying for shrinking
                    let claimed = witness_slots
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                        .is_ok();
                    claimed.then(|| {
                        minimise(
                            &program,
                            &pipeline,
                            &oracle,
                            |r| r.outcome.is_divergence(),
                            config.shrink_attempts,
                        )
                    })
                }
                _ => None,
            };
            (report, minimised)
        }));

        let mut guard = shared.lock().unwrap_or_else(|e| e.into_inner());
        let (stats, violations, witnesses) = &mut *guard;
        stats.pairs_checked += 1;
        match outcome {
            Err(_) => stats.panics += 1,
            Ok((report, minimised)) => {
                stats.record_latency(report.elapsed);
                match &report.outcome {
                    Outcome::Identity => stats.identity += 1,
                    Outcome::Refines => stats.refines += 1,
                    Outcome::Inconclusive => stats.inconclusive += 1,
                    Outcome::ExpectedDivergence(_) => stats.expected_divergences += 1,
                    Outcome::Violation(_) => stats.violations += 1,
                }
                if let Some(m) = minimised {
                    stats.shrink_steps += m.steps as u64;
                    stats.shrink_attempts += m.attempts as u64;
                    stats.witnesses_minimised += 1;
                    let w = witness_from(&m, model);
                    if w.violation {
                        violations.push(w);
                    } else {
                        witnesses.push(w);
                    }
                }
            }
        }
    });

    let (stats, violations, witnesses) = shared.into_inner().unwrap_or_else(|e| e.into_inner());
    SoakReport {
        stats,
        violations,
        witnesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_case_is_deterministic() {
        let pcfg = PipelineConfig::default();
        for index in [0u64, 1, 17, 4096] {
            let (p1, pipe1) = derive_case(42, index, &pcfg);
            let (p2, pipe2) = derive_case(42, index, &pcfg);
            assert_eq!(p1, p2);
            assert_eq!(pipe1, pipe2);
        }
        let (a, _) = derive_case(42, 0, &pcfg);
        let (b, _) = derive_case(43, 0, &pcfg);
        assert_ne!(a, b, "different seeds must give different programs");
    }

    #[test]
    fn small_soak_is_clean_and_deterministic() {
        let config = SoakConfig {
            pairs: 60,
            jobs: 2,
            max_witnesses: 2,
            // no wall-clock component: counters must be bit-identical
            // across runs, and only state caps truncate reproducibly
            budget: Budget::unlimited().max_states(20_000),
            ..SoakConfig::default()
        };
        let a = run_soak(&config);
        assert!(a.clean(), "violations: {:?}", a.violations);
        assert_eq!(a.stats.pairs_checked, 60 + 2); // + seeded cases
        assert_eq!(a.stats.seeded_detected, 2);
        // counters (not latencies) depend on neither the schedule nor
        // the job count
        let b = run_soak(&SoakConfig { jobs: 1, ..config });
        assert_eq!(a.stats.refines, b.stats.refines);
        assert_eq!(a.stats.identity, b.stats.identity);
        assert_eq!(a.stats.expected_divergences, b.stats.expected_divergences);
        assert_eq!(a.stats.violations, b.stats.violations);
    }
}
