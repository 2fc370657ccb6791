//! The operations the workloads time, each as a call into the public
//! library, in an untraced form (the measured one) and a traced form
//! that replays the same op as the separate layer calls the pipeline
//! makes today, with a span around each.

use transafety::checker::{
    behaviour_refinement, check_elimination_correspondence, check_identity_correspondence,
    check_reordering_correspondence, classify_transformation, drf_guarantee, Correspondence,
    DrfVerdict, Refinement, SemanticClass, TransformationClass,
};
use transafety::fuzz::{
    check_pair, known_unsafe_cases, minimise, replay, CaseReport, Minimised, OracleConfig, Outcome,
    Pipeline,
};
use transafety::interleaving::{BudgetGuard, ExploreMetrics};
use transafety::lang::{
    extract_traceset, parse_program, MemoryModel, ModelExplorer, Program, ProgramExplorer, ScModel,
};
use transafety::serve::{
    normalise, parse_request, CacheEntry, CacheKey, CacheLookup, VerdictCache,
};
use transafety::syntactic::all_rewrites;
use transafety::tso::{PsoModel, TsoModel};
use transafety::{Analysis, AnalysisReport, Budget, CancelToken, MemoryModelKind, Verdict};

use crate::data::{behaviours_digest, CheckTruth, Race};
use crate::trace::{PhaseKind, Tracer};

/// What a check op answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckAnswer {
    pub verdict: Race,
    pub complete: bool,
    pub count: u64,
    /// Absent for serve responses, which carry only the count.
    pub digest: Option<u64>,
    /// No budget bound tripped in any phase (what makes a result
    /// cacheable).
    pub exact: bool,
}

impl CheckAnswer {
    pub fn from_report(report: &AnalysisReport) -> Self {
        CheckAnswer {
            verdict: race_of(report.verdict),
            complete: report.behaviours.complete,
            count: report.behaviours.value.len() as u64,
            digest: Some(behaviours_digest(&report.behaviours.value)),
            exact: report.completeness.is_complete(),
        }
    }
}

fn race_of(v: Verdict) -> Race {
    match v {
        Verdict::Racy => Race::Racy,
        Verdict::DrfProven => Race::Drf,
        Verdict::Unknown => Race::Unknown,
    }
}

/// Any op's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Check(CheckAnswer),
    Outcome(String),
}

impl Answer {
    /// Conclusive answers: a race verdict, a refinement outcome other
    /// than inconclusive, a classification other than inconclusive, a
    /// detected seeded case.
    pub fn decided(&self) -> bool {
        match self {
            Answer::Check(a) => a.verdict != Race::Unknown,
            Answer::Outcome(s) => {
                let head = s.split('/').next().unwrap_or_default();
                head != "inconclusive" && head != "missed"
            }
        }
    }

    /// The part of the answer a traced replay must reproduce: the race
    /// witness's presence and the behaviour set, not how a verdict is
    /// derived from them.
    pub fn trace_key(&self) -> (bool, bool, u64, Option<u64>, &str) {
        match self {
            Answer::Check(a) => (a.verdict == Race::Racy, a.complete, a.count, a.digest, ""),
            Answer::Outcome(s) => (false, false, 0, None, s),
        }
    }
}

/// Is a check answer consistent with the reference? A conclusive
/// verdict must match the reference's; a complete behaviour set must
/// equal the reference's. `unknown` and truncated sets are allowed
/// (they lower `decided_ratio` instead).
pub fn check_consistent(truth: &CheckTruth, a: &CheckAnswer) -> Result<(), String> {
    match (a.verdict, truth.race) {
        (Race::Unknown, _) | (Race::Racy, Race::Racy) | (Race::Drf, Race::Drf) => {}
        (got, want) => {
            return Err(format!(
                "verdict {} but the reference says {}",
                got.as_str(),
                want.as_str()
            ))
        }
    }
    if a.complete {
        let Some((count, digest)) = truth.behaviours else {
            return Err("complete behaviours where the reference was truncated".into());
        };
        if a.count != count || a.digest.is_some_and(|d| d != digest) {
            return Err(format!(
                "behaviours {}:{:016x} but the reference has {count}:{digest:016x}",
                a.count,
                a.digest.unwrap_or(0)
            ));
        }
    }
    Ok(())
}

/// Is an outcome (`fuzz`/`classify`, `/`-separated parts) consistent
/// with the blessed one? Each part must match, except that either side
/// may be `inconclusive`. A violation never passes.
pub fn outcome_consistent(expected: &str, got: &str) -> Result<(), String> {
    let exp: Vec<&str> = expected.split('/').collect();
    let ans: Vec<&str> = got.split('/').collect();
    let ok = exp.len() == ans.len()
        && exp.iter().zip(&ans).all(|(e, a)| {
            *a != "violation"
                && *a != "missed"
                && (e == a || *a == "inconclusive" || *e == "inconclusive")
        });
    if ok {
        Ok(())
    } else {
        Err(format!("answered {got} but expected {expected}"))
    }
}

// ---------------------------------------------------------------------
// check ops
// ---------------------------------------------------------------------

/// Source text → `parse_program` → `Analysis::run`.
pub fn check(source: &str, analysis: &Analysis) -> Result<AnalysisReport, String> {
    let program = parse_program(source).map_err(|e| e.to_string())?.program;
    Ok(analysis.run(&program))
}

/// The traced check: parse, model construction, then the three
/// governed phases on one metrics-enabled guard.
pub fn traced_check(
    source: &str,
    analysis: &Analysis,
    tr: &mut Tracer,
) -> Result<CheckAnswer, String> {
    let program = tr
        .span("lang.parse", |_| parse_program(source))
        .map_err(|e| e.to_string())?
        .program;
    Ok(traced_compute(&program, analysis, tr))
}

/// Model construction and the three exploration phases.
fn traced_compute(program: &Program, analysis: &Analysis, tr: &mut Tracer) -> CheckAnswer {
    match analysis.model {
        MemoryModelKind::Sc => {
            let ex = tr.span("lang.lower", |_| ProgramExplorer::new(program));
            let model = ScModel::new(&ex);
            traced_phases(&ModelExplorer::new(&model), analysis, tr)
        }
        MemoryModelKind::Tso => {
            let model = tr.span("lang.lower", |_| TsoModel::new(program));
            traced_phases(&ModelExplorer::new(&model), analysis, tr)
        }
        MemoryModelKind::Pso => {
            let model = tr.span("lang.lower", |_| PsoModel::new(program));
            traced_phases(&ModelExplorer::new(&model), analysis, tr)
        }
    }
}

fn traced_phases<M: MemoryModel>(
    mx: &ModelExplorer<'_, M>,
    analysis: &Analysis,
    tr: &mut Tracer,
) -> CheckAnswer {
    let collector = ExploreMetrics::collector();
    let guard = BudgetGuard::with_metrics(&analysis.budget, CancelToken::new(), collector.clone());
    let (opts, jobs) = (&analysis.explore, analysis.jobs);
    let s0 = collector.snapshot();
    let behaviours = tr.span("lang.model.behaviours", |_| {
        mx.behaviours_par_governed(opts, jobs, &guard)
    });
    let s1 = collector.snapshot();
    let race = tr.span("lang.model.races", |_| {
        mx.race_witness_par_governed(opts, jobs, &guard)
    });
    let s2 = collector.snapshot();
    tr.span("lang.model.census", |_| {
        mx.count_reachable_states_par_governed(opts, jobs, &guard)
    });
    let s3 = collector.snapshot();
    tr.counts.add_phase(PhaseKind::Behaviours, &s0, &s1);
    tr.counts.add_phase(PhaseKind::Races, &s1, &s2);
    tr.counts.add_phase(PhaseKind::Census, &s2, &s3);
    let exact = guard.trip_reason().is_none();
    let verdict = if race.is_some() {
        Race::Racy
    } else if exact {
        Race::Drf
    } else {
        Race::Unknown
    };
    CheckAnswer {
        verdict,
        complete: behaviours.complete,
        count: behaviours.value.len() as u64,
        digest: Some(behaviours_digest(&behaviours.value)),
        exact,
    }
}

// ---------------------------------------------------------------------
// rewrite-validate ops
// ---------------------------------------------------------------------

/// The per-side fuzz oracle budget: a state cap only, so answers do not
/// depend on the host's speed.
pub fn oracle_config(model: MemoryModelKind) -> OracleConfig {
    OracleConfig {
        model,
        budget: Budget::unlimited().max_states(20_000),
        jobs: 1,
        por: true,
    }
}

/// Oracle re-runs per minimisation (the `drfcheck fuzz` default).
pub const SHRINK_ATTEMPTS: usize = 400;

pub fn outcome_name(o: &Outcome) -> &'static str {
    match o {
        Outcome::Identity => "identity",
        Outcome::Refines => "refines",
        Outcome::Inconclusive => "inconclusive",
        Outcome::ExpectedDivergence(_) => "expected_divergence",
        Outcome::Violation(_) => "violation",
    }
}

fn parse_pair(source: &str, pipeline: &str) -> Result<(Program, Pipeline), String> {
    let program = parse_program(source).map_err(|e| e.to_string())?.program;
    let pipeline: Pipeline = pipeline.parse().map_err(|e| format!("{e}"))?;
    Ok((program, pipeline))
}

/// Minimises a divergence the way `fuzz::run_soak` does: violations
/// always, expected divergences while `witness_slots` lasts.
fn shrink_if_needed(
    program: &Program,
    pipeline: &Pipeline,
    oracle: &OracleConfig,
    report: &CaseReport,
    witness_slots: &mut usize,
) -> Option<Minimised> {
    let keep: fn(&CaseReport) -> bool = match report.outcome {
        Outcome::Violation(_) => |r| r.outcome.is_violation(),
        Outcome::ExpectedDivergence(_) if *witness_slots > 0 => {
            *witness_slots -= 1;
            |r| r.outcome.is_divergence()
        }
        _ => return None,
    };
    Some(minimise(program, pipeline, oracle, keep, SHRINK_ATTEMPTS))
}

/// `fuzz::check_pair`, minimising on divergence.
pub fn fuzz(
    source: &str,
    pipeline: &str,
    model: MemoryModelKind,
    witness_slots: &mut usize,
    tr: &mut Tracer,
) -> Result<String, String> {
    let (program, pipeline) = tr.span("lang.parse", |_| parse_pair(source, pipeline))?;
    if tr.is_enabled() {
        // `check_pair` applies the pipeline itself; this separate
        // application only measures the rewrite engine's share.
        tr.span("fuzz.pipeline", |_| pipeline.apply(&program));
    }
    let oracle = oracle_config(model);
    let report = tr.span("fuzz.oracle", |_| check_pair(&program, &pipeline, &oracle));
    let shrunk = tr.span("fuzz.shrink", |_| {
        shrink_if_needed(&program, &pipeline, &oracle, &report, witness_slots)
    });
    if let Some(m) = shrunk {
        tr.counts.shrink_steps += m.steps as u64;
        tr.counts.shrink_attempts += m.attempts as u64;
    }
    Ok(outcome_name(&report.outcome).to_string())
}

/// Replays a built-in known-unsafe case (detect, then minimise).
pub fn seeded(name: &str, tr: &mut Tracer) -> Result<String, String> {
    let case = known_unsafe_cases()
        .into_iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("no seeded case {name}"))?;
    let oracle = oracle_config(case.model);
    let result = tr.span("fuzz.shrink", |_| replay(&case, &oracle, SHRINK_ATTEMPTS));
    if let Some(m) = &result.minimised {
        tr.counts.shrink_steps += m.steps as u64;
        tr.counts.shrink_attempts += m.attempts as u64;
    }
    Ok(if result.detected {
        "detected"
    } else {
        "missed"
    }
    .to_string())
}

pub fn class_name(c: &TransformationClass) -> &'static str {
    match c {
        TransformationClass::Identity => "identity",
        TransformationClass::Elimination => "elimination",
        TransformationClass::EliminationThenReordering => "elim_reordering",
        TransformationClass::ScRefiningOnly => "sc_refining",
        TransformationClass::Unsafe { .. } => "unsafe",
        TransformationClass::Inconclusive => "inconclusive",
    }
}

pub fn guarantee_name(v: &DrfVerdict) -> &'static str {
    match v {
        DrfVerdict::OriginalRacy(_) => "original_racy",
        DrfVerdict::Holds => "holds",
        DrfVerdict::NewBehaviour(_) => "new_behaviour",
        DrfVerdict::RaceIntroduced(_) => "race_introduced",
        DrfVerdict::Inconclusive => "inconclusive",
    }
}

/// The rewrite a classify case picks: `pick` modulo the rewrites the
/// engine finds.
fn picked_rewrite(
    program: &Program,
    pick: u32,
    rewrites: Vec<transafety::syntactic::Rewrite>,
) -> Result<Program, String> {
    if rewrites.is_empty() {
        return Err(format!("no rewrite applies to\n{program}"));
    }
    let idx = pick as usize % rewrites.len();
    Ok(rewrites
        .into_iter()
        .nth(idx)
        .expect("index in range")
        .result)
}

/// `all_rewrites`, one seeded pick, `classify_transformation` and
/// `drf_guarantee`.
pub fn classify(source: &str, pick: u32) -> Result<String, String> {
    let program = parse_program(source).map_err(|e| e.to_string())?.program;
    let rewritten = picked_rewrite(&program, pick, all_rewrites(&program))?;
    let analysis = Analysis::new();
    let class = classify_transformation(&rewritten, &program, &analysis);
    let guarantee = drf_guarantee(&rewritten, &program, &analysis);
    Ok(format!(
        "{}/{}",
        class_name(&class),
        guarantee_name(&guarantee)
    ))
}

/// The traced classify: the correspondence cascade
/// `classify_transformation` runs today, as separate calls.
pub fn traced_classify(source: &str, pick: u32, tr: &mut Tracer) -> Result<String, String> {
    let program = tr
        .span("lang.parse", |_| parse_program(source))
        .map_err(|e| e.to_string())?
        .program;
    let rewrites = tr.span("syntactic.rewrites", |_| all_rewrites(&program));
    tr.counts.rewrites += rewrites.len() as u64;
    let t = picked_rewrite(&program, pick, rewrites)?;
    let o = &program;
    let a = Analysis::new();
    let class = tr.span("checker.classify", |tr| {
        // The correspondence checks extract both tracesets again; this
        // extraction only measures the extractor's share.
        tr.span("lang.extract", |_| {
            std::hint::black_box((
                extract_traceset(&t, &a.domain, &a.extract),
                extract_traceset(o, &a.domain, &a.extract),
            ))
        });
        let step = tr.span("checker.correspondence", |_| {
            match check_identity_correspondence(&t, o, &a) {
                Correspondence::Verified {
                    class: SemanticClass::Identity,
                } => return Some(TransformationClass::Identity),
                Correspondence::Inconclusive => return Some(TransformationClass::Inconclusive),
                _ => {}
            }
            match check_elimination_correspondence(&t, o, &a) {
                Correspondence::Verified { .. } => return Some(TransformationClass::Elimination),
                Correspondence::Inconclusive => return Some(TransformationClass::Inconclusive),
                Correspondence::Failed { .. } => {}
            }
            match check_reordering_correspondence(&t, o, &a) {
                Correspondence::Verified { .. } => {
                    Some(TransformationClass::EliminationThenReordering)
                }
                Correspondence::Inconclusive => Some(TransformationClass::Inconclusive),
                Correspondence::Failed { .. } => None,
            }
        });
        match step {
            Some(class) => class,
            None => tr.span("checker.refinement", |_| {
                match behaviour_refinement(&t, o, &a) {
                    Refinement::Refines => TransformationClass::ScRefiningOnly,
                    Refinement::NewBehaviour(_) => TransformationClass::Unsafe {
                        witness_trace: None,
                    },
                    Refinement::Inconclusive => TransformationClass::Inconclusive,
                }
            }),
        }
    });
    let guarantee = tr.span("checker.guarantee", |_| drf_guarantee(&t, o, &a));
    Ok(format!(
        "{}/{}",
        class_name(&class),
        guarantee_name(&guarantee)
    ))
}

// ---------------------------------------------------------------------
// serve replay
// ---------------------------------------------------------------------

/// The options fingerprint the replay keys its own cache with (the
/// semantic options, as the server's key does).
fn fingerprint(a: &Analysis) -> String {
    let domain: Vec<String> = a.domain.values().iter().map(ToString::to_string).collect();
    format!(
        "model={};domain={};max_actions={};max_tau={};por={}",
        a.model.as_str(),
        domain.join(","),
        a.explore.max_actions,
        a.explore.max_tau,
        a.explore.por
    )
}

/// A sequential replay of one serve request through the layers the
/// server calls, against the replay's own cache. With a disabled
/// tracer the compute step is a plain `Analysis::run`.
pub fn serve_replay(
    line: &str,
    defaults: &Analysis,
    cache: &VerdictCache,
    tr: &mut Tracer,
) -> Result<CheckAnswer, String> {
    let req = tr
        .span("serve.proto", |_| parse_request(line))
        .map_err(|e| e.message)?;
    let mut analysis = defaults.clone();
    if let Some(m) = req.model {
        analysis = analysis.model(m);
    }
    let program = tr
        .span("lang.parse", |_| parse_program(&req.program))
        .map_err(|e| e.to_string())?
        .program;
    let fp = fingerprint(&analysis);
    let (key, canonical) = tr.span("serve.cache.normalise", |_| {
        let normalised = normalise(&program);
        (CacheKey::new(&normalised, &fp), normalised.to_string())
    });
    let lookup = tr.span("serve.cache.load", |_| cache.load(key, &canonical, &fp));
    tr.counts.cache_lookups += 1;
    if let CacheLookup::Hit(entry) = lookup {
        tr.counts.cache_hits += 1;
        let verdict = match entry.verdict.as_str() {
            "racy" => Race::Racy,
            "drf_proven" => Race::Drf,
            _ => Race::Unknown,
        };
        return Ok(CheckAnswer {
            verdict,
            complete: entry.behaviours_complete,
            count: entry.behaviours,
            digest: None,
            exact: true,
        });
    }
    let answer = if tr.is_enabled() {
        tr.span("serve.compute", |tr| {
            traced_compute(&program, &analysis, tr)
        })
    } else {
        CheckAnswer::from_report(&analysis.run(&program))
    };
    if answer.exact {
        let entry = CacheEntry {
            program: canonical,
            fingerprint: fp,
            verdict: if answer.verdict == Race::Racy {
                "racy"
            } else {
                "drf_proven"
            }
            .to_string(),
            behaviours: answer.count,
            behaviours_complete: answer.complete,
            reachable_states: 0,
        };
        tr.span("serve.cache.store", |_| cache.store(key, &entry))
            .map_err(|e| format!("cache store: {e}"))?;
    }
    Ok(CheckAnswer {
        digest: None,
        ..answer
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_rule() {
        assert!(outcome_consistent("refines", "refines").is_ok());
        assert!(outcome_consistent("refines", "inconclusive").is_ok());
        assert!(outcome_consistent("inconclusive", "refines").is_ok());
        assert!(outcome_consistent("refines", "expected_divergence").is_err());
        assert!(outcome_consistent("inconclusive", "violation").is_err());
        assert!(outcome_consistent("elimination/holds", "elimination/inconclusive").is_ok());
        assert!(outcome_consistent("elimination/holds", "unsafe/holds").is_err());
        assert!(outcome_consistent("detected", "missed").is_err());
    }

    #[test]
    fn traced_check_matches_analysis() {
        let src = "x := 1; r1 := y; print r1; || y := 1; r2 := x; print r2;";
        for model in MemoryModelKind::ALL {
            let analysis = Analysis::new().model(model).max_states(100_000);
            let plain = CheckAnswer::from_report(&check(src, &analysis).unwrap());
            let mut tr = Tracer::new();
            let traced = traced_check(src, &analysis, &mut tr).unwrap();
            assert_eq!(plain, traced, "{model}");
            assert!(tr.counts.behaviours_states > 0);
        }
    }
}
