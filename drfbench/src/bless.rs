//! `drfbench bless`: builds a pool and its expected answers from
//! reference engines, not from the default path, and cross-checks them.
//!
//! * Check cases: under SC, the §3 traceset `Explorer` (extraction plus
//!   the unreduced behaviour and race searches) wherever extraction
//!   completes; otherwise the model engine at `jobs(1)` with the
//!   partial-order reduction off. The race and behaviour phases run on
//!   separate guards, so a behaviour phase cut short by action fuel does
//!   not hide an exact race answer.
//! * Fuzz cases: the refinement oracle with the reduction off and a
//!   larger state cap.
//! * Classify cases: the classifier itself (it has no second engine).
//!
//! Bless then asserts SC ⊆ TSO ⊆ PSO behaviours, that lock-disciplined
//! programs are data race free, that no fuzz case is a violation, that
//! the seeded unsafe cases are detected, and that the default path
//! agrees with every reference answer: a disagreement is a library bug,
//! so bless fails and lists every input that shows one. Inputs whose
//! default run trips the state cap are left out (at `jobs(2)` a
//! state-capped run's answer depends on scheduling).

use std::collections::BTreeSet;
use std::path::Path;

use transafety::fuzz::{check_pair, derive_case, known_unsafe_cases, OracleConfig, PipelineConfig};
use transafety::interleaving::{Behaviours, BudgetGuard, Explorer};
use transafety::lang::{
    extract_traceset, parse_program, Bounded, ExploreOptions, ExtractOptions, MemoryModel,
    ModelExplorer, Program, ProgramExplorer, ScModel,
};
use transafety::litmus::{corpus, random_program, GeneratorConfig, Rng};
use transafety::syntactic::all_rewrites;
use transafety::traces::Domain;
use transafety::tso::{PsoModel, TsoModel};
use transafety::{
    Budget, BudgetBound, CancelToken, Completeness, MemoryModelKind, TruncationReason,
};

use crate::data::{self, behaviours_digest, Case, CaseKind, CheckTruth, Race};
use crate::ops::{self, outcome_name, CheckAnswer};
use crate::trace::Tracer;
use crate::workload::Workload;

/// Every pool is generated from this seed, so blessing is repeatable.
const POOL_SEED: u64 = 0x00D2_F0BE_5EED;

/// Programs generated per shape for each pool.
const SMALL_PER_SHAPE: usize = 480;
const LARGE_PER_SHAPE: usize = 60;
const FUZZ_CASES: u64 = 1_200;
const CLASSIFY_PER_SHAPE: usize = 16;
/// Await-shape classify cases each take ~0.3 s (the classifier has no
/// budget), so only this many join the pool; more would make a few
/// long ops set the workload's throughput.
const CLASSIFY_AWAITS: usize = 2;

/// State caps of the reference engines (well above the workloads' own).
const REFERENCE_STATES: usize = 5_000_000;
const REFERENCE_ORACLE_STATES: usize = 200_000;

/// The `.tsl` sample programs, embedded when the pool is blessed.
const TSL_DIR: &str = "programs";

fn shapes_small() -> Vec<(&'static str, GeneratorConfig)> {
    vec![
        ("default", GeneratorConfig::default()),
        ("drf", GeneratorConfig::drf()),
        ("volatiles", GeneratorConfig::with_volatiles()),
        ("loops", GeneratorConfig::with_loops()),
        ("awaits", GeneratorConfig::with_awaits()),
    ]
}

fn shapes_large() -> Vec<(&'static str, GeneratorConfig)> {
    let wide = |threads, stmts_per_thread, base: GeneratorConfig| GeneratorConfig {
        threads,
        stmts_per_thread,
        ..base
    };
    vec![
        ("3x4-racy", wide(3, 4, GeneratorConfig::default())),
        ("3x4-locked", wide(3, 4, GeneratorConfig::drf())),
        ("3x5-racy", wide(3, 5, GeneratorConfig::default())),
        ("4x3-locked", wide(4, 3, GeneratorConfig::drf())),
    ]
}

/// A generated program as one line of source: the rendering without
/// its `// thread` comments, lines joined by spaces.
fn compact(program: &Program) -> String {
    program
        .to_string()
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse(source: &str) -> Result<Program, String> {
    parse_program(source)
        .map(|s| s.program)
        .map_err(|e| e.to_string())
}

/// The reference answer for one program under one model, with the
/// complete behaviour set kept for the inclusion check.
struct Reference {
    truth: CheckTruth,
    behaviours: Option<Behaviours>,
}

fn reference(program: &Program, model: MemoryModelKind) -> Reference {
    if model == MemoryModelKind::Sc {
        if let Some(r) = traceset_reference(program) {
            return r;
        }
    }
    let opts = ExploreOptions {
        por: false,
        ..ExploreOptions::default()
    };
    match model {
        MemoryModelKind::Sc => {
            let ex = ProgramExplorer::new(program);
            let m = ScModel::new(&ex);
            model_reference(&ModelExplorer::new(&m), &opts)
        }
        MemoryModelKind::Tso => {
            model_reference(&ModelExplorer::new(&TsoModel::new(program)), &opts)
        }
        MemoryModelKind::Pso => {
            model_reference(&ModelExplorer::new(&PsoModel::new(program)), &opts)
        }
    }
}

fn capped_guard() -> BudgetGuard {
    BudgetGuard::new(
        &Budget::unlimited().max_states(REFERENCE_STATES),
        CancelToken::new(),
    )
}

/// The §3 route: extract `[P]` over the program's constants, then run
/// the unreduced traceset searches.
fn traceset_reference(program: &Program) -> Option<Reference> {
    let domain = Domain::from_values(program.constants());
    let extraction = extract_traceset(program, &domain, &ExtractOptions::default());
    if extraction.truncated {
        return None;
    }
    let explorer = Explorer::new(&extraction.traceset).por(false);
    let race_guard = capped_guard();
    let racy = explorer.race_witness_governed(&race_guard).is_some();
    let beh_guard = capped_guard();
    let behaviours = explorer.behaviours_governed(&beh_guard);
    if race_guard.trip_reason().is_some() || beh_guard.trip_reason().is_some() {
        return None;
    }
    Some(Reference {
        truth: CheckTruth {
            race: if racy { Race::Racy } else { Race::Drf },
            behaviours: Some((behaviours.len() as u64, behaviours_digest(&behaviours))),
        },
        behaviours: Some(behaviours),
    })
}

fn model_reference<M: MemoryModel>(mx: &ModelExplorer<'_, M>, opts: &ExploreOptions) -> Reference {
    let race_guard = capped_guard();
    let witness = mx.race_witness_governed(opts, &race_guard);
    let race = match (witness, race_guard.trip_reason()) {
        (Some(_), _) => Race::Racy,
        (None, None) => Race::Drf,
        (None, Some(_)) => Race::Unknown,
    };
    let beh_guard = capped_guard();
    let Bounded { value, complete } = mx.behaviours_governed(opts, &beh_guard);
    let complete = complete && beh_guard.trip_reason().is_none();
    Reference {
        truth: CheckTruth {
            race,
            behaviours: complete.then(|| (value.len() as u64, behaviours_digest(&value))),
        },
        behaviours: complete.then_some(value),
    }
}

/// One program's check cases: reference answers per model, the default
/// path cross-checked against them.
fn bless_program(
    workload: Workload,
    id: &str,
    group: &str,
    source: &str,
    models: &[MemoryModelKind],
    locked: bool,
) -> Result<Blessed, String> {
    let program = parse(source).map_err(|e| format!("{id}: {e}"))?;
    let mut runs = Vec::new();
    let mut sets: Vec<Option<Behaviours>> = Vec::new();
    for &model in models {
        let report = workload.analysis(model).run(&program);
        if report.completeness
            == (Completeness::Truncated {
                reason: TruncationReason::BudgetExceeded(BudgetBound::States),
            })
        {
            return Ok(Blessed::StateCap);
        }
        let r = reference(&program, model);
        if let Err(e) = ops::check_consistent(&r.truth, &CheckAnswer::from_report(&report)) {
            return Ok(Blessed::Disagrees(format!(
                "{id}\t{model}\t{e}\t{}",
                data::escape(source)
            )));
        }
        if locked && r.truth.race != Race::Drf {
            return Err(format!(
                "{id} is lock-disciplined but not proven DRF under {model}"
            ));
        }
        sets.push(r.behaviours);
        runs.push((model, r.truth));
    }
    // SC ⊆ TSO ⊆ PSO wherever the reference sets are complete.
    for w in sets.windows(2) {
        if let [Some(weaker), Some(stronger)] = w {
            if !weaker.is_subset(stronger) {
                return Err(format!("{id}: behaviours are not included model to model"));
            }
        }
    }
    Ok(Blessed::Kept(Case {
        id: id.to_string(),
        group: group.to_string(),
        kind: CaseKind::Check {
            source: source.to_string(),
            runs,
        },
    }))
}

/// What blessing one program gave.
enum Blessed {
    Kept(Case),
    /// The default run tripped the state cap under some model.
    StateCap,
    /// The default path disagrees with the reference (one report line:
    /// id, model, disagreement, source).
    Disagrees(String),
}

fn tsl_programs() -> Result<Vec<(String, String)>, String> {
    let dir = data::repo_root().join(TSL_DIR);
    let mut out = Vec::new();
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "tsl") {
            let name = path
                .file_stem()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            out.push((name, text));
        }
    }
    out.sort();
    Ok(out)
}

/// Which models a `.tsl` program runs under in a workload: `check-small`
/// leaves `guarded_staging` to SC (it takes seconds under TSO/PSO);
/// `check-large` takes only `private_staging` under TSO/PSO and
/// `guarded_staging` under SC.
fn tsl_models(workload: Workload, name: &str) -> Vec<MemoryModelKind> {
    use MemoryModelKind::{Pso, Sc, Tso};
    match (workload, name) {
        (Workload::CheckLarge, "private_staging") => vec![Tso, Pso],
        (Workload::CheckLarge, "guarded_staging") | (_, "guarded_staging") => vec![Sc],
        (Workload::CheckLarge, _) => Vec::new(),
        _ => vec![Sc, Tso, Pso],
    }
}

fn check_pool(workload: Workload) -> Result<(Vec<Case>, Vec<String>), String> {
    let (shapes, per_shape) = match workload {
        Workload::CheckLarge => (shapes_large(), LARGE_PER_SHAPE),
        _ => (shapes_small(), SMALL_PER_SHAPE),
    };
    let mut out = Vec::new();
    let mut disagreements = Vec::new();
    let mut capped = 0usize;
    let mut keep = |blessed: Blessed, out: &mut Vec<Case>| match blessed {
        Blessed::Kept(case) => {
            out.push(case);
            true
        }
        Blessed::StateCap => {
            capped += 1;
            false
        }
        Blessed::Disagrees(line) => {
            disagreements.push(line);
            false
        }
    };
    let stream = if workload == Workload::CheckLarge {
        0x1A
    } else {
        0x5A
    };
    let mut rng = Rng::seed_from_u64(POOL_SEED ^ stream);
    let all = MemoryModelKind::ALL;
    for (shape, config) in &shapes {
        let group = format!("gen:{shape}");
        let mut kept = 0;
        let mut n = 0;
        while kept < per_shape {
            let source = compact(&random_program(rng.next_u64(), config));
            let id = format!("{shape}-{n}");
            n += 1;
            let blessed =
                bless_program(workload, &id, &group, &source, &all, config.lock_discipline)?;
            if keep(blessed, &mut out) {
                kept += 1;
            }
        }
        eprintln!("bless {}: {group}: {kept} of {n} programs", workload.name());
    }
    if workload == Workload::CheckSmall {
        for l in corpus() {
            keep(
                bless_program(workload, l.name, "corpus", l.source, &all, false)?,
                &mut out,
            );
        }
    }
    for (name, text) in tsl_programs()? {
        let models = tsl_models(workload, &name);
        if !models.is_empty() {
            keep(
                bless_program(workload, &name, "tsl", &text, &models, false)?,
                &mut out,
            );
        }
    }
    eprintln!(
        "bless {}: {} programs; left out {capped} at the state cap",
        workload.name(),
        out.len()
    );
    Ok((out, disagreements))
}

fn rewrite_pool() -> Result<(Vec<Case>, Vec<String>), String> {
    let mut out = Vec::new();
    let mut disagreements = Vec::new();
    let pcfg = PipelineConfig::default();
    let mut violations = 0;
    for i in 0..FUZZ_CASES {
        let (program, pipeline) = derive_case(POOL_SEED, i, &pcfg);
        let source = compact(&program);
        let pipeline = pipeline.to_string();
        let model = MemoryModelKind::ALL[(i % 3) as usize];
        // The case runs on the reparsed text, so bless it from the text.
        let program = parse(&source)?;
        let pipe = pipeline.parse().map_err(|e| format!("{e}"))?;
        let reference = check_pair(
            &program,
            &pipe,
            &OracleConfig {
                model,
                budget: Budget::unlimited().max_states(REFERENCE_ORACLE_STATES),
                jobs: 1,
                por: false,
            },
        );
        let expected = outcome_name(&reference.outcome);
        if reference.outcome.is_violation() {
            violations += 1;
            continue;
        }
        let default = ops::fuzz(&source, &pipeline, model, &mut 0, &mut Tracer::disabled())?;
        if let Err(e) = ops::outcome_consistent(expected, &default) {
            disagreements.push(format!("f{i}\t{model}\t{e}\t{}", data::escape(&source)));
            continue;
        }
        out.push(Case {
            id: format!("f{i}"),
            group: "fuzz".into(),
            kind: CaseKind::Fuzz {
                model,
                source,
                pipeline,
                outcome: expected.to_string(),
            },
        });
    }
    if violations > 0 {
        return Err(format!("{violations} fuzz cases are refinement violations"));
    }
    for case in known_unsafe_cases() {
        let outcome = ops::seeded(case.name, &mut Tracer::disabled())?;
        if outcome != "detected" {
            return Err(format!("seeded case {} is not detected", case.name));
        }
        out.push(Case {
            id: case.name.to_string(),
            group: "seeded".into(),
            kind: CaseKind::Seeded {
                model: case.model,
                outcome,
            },
        });
    }
    let mut rng = Rng::seed_from_u64(POOL_SEED ^ 0xC1A5);
    for (shape, config) in shapes_small() {
        let want = if shape == "awaits" {
            CLASSIFY_AWAITS
        } else {
            CLASSIFY_PER_SHAPE
        };
        let mut kept = 0;
        while kept < want {
            let source = compact(&random_program(rng.next_u64(), &config));
            let pick = rng.gen_range_u32(0, 1 << 16);
            if all_rewrites(&parse(&source)?).is_empty() {
                continue;
            }
            let expected = ops::classify(&source, pick)?;
            out.push(Case {
                id: format!("c-{shape}-{kept}"),
                group: format!("classify:{shape}"),
                kind: CaseKind::Classify {
                    source,
                    pick,
                    expected,
                },
            });
            kept += 1;
        }
    }
    eprintln!("bless rewrite-validate: {} cases", out.len());
    Ok((out, disagreements))
}

/// Regenerates the pool of `workload` into `data_dir`. Fails, writing
/// nothing, when the default path disagrees with a reference answer. An
/// existing file whose answers differ is only replaced with `force`.
pub fn bless(workload: Workload, data_dir: &Path, force: bool) -> Result<(), String> {
    let (cases, disagreements) = match workload {
        Workload::RewriteValidate => rewrite_pool()?,
        _ => check_pool(workload)?,
    };
    if !disagreements.is_empty() {
        return Err(format!(
            "{}: the default path disagrees with the reference on {} inputs \
             (id, model, disagreement, source):\n{}",
            workload.name(),
            disagreements.len(),
            disagreements.join("\n")
        ));
    }
    let path = data::pool_path(data_dir, workload.pool());
    if path.exists() && !force {
        let old: BTreeSet<String> = data::load(&path)?.iter().map(Case::to_line).collect();
        let new: BTreeSet<String> = cases.iter().map(Case::to_line).collect();
        if old != new {
            let differing = new.symmetric_difference(&old).count();
            return Err(format!(
                "{}: {differing} cases differ from the blessed answers; pass --force to replace them",
                path.display()
            ));
        }
        eprintln!("bless {}: unchanged", workload.name());
        return Ok(());
    }
    data::store(
        &path,
        &format!(
            "drfbench pool for {}; written by `drfbench bless`, do not edit",
            workload.pool()
        ),
        &cases,
    )?;
    eprintln!("bless {}: wrote {}", workload.name(), path.display());
    Ok(())
}
