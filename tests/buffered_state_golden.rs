//! Golden pin of the SC, TSO and PSO state spaces: for every
//! `programs/*.tsl` sample and every litmus-corpus program, under each
//! model, at `--jobs 1`, with the partial-order reduction on and off,
//! the `drfcheck states` count and the deterministic exploration
//! counters of `drfcheck --stats=json check` must equal the recorded
//! table in `tests/golden/buffered_state_spaces.txt` exactly. The sc
//! lines also pin the interner's probe and collision counts.
//!
//! `Analysis::run` answers the race question with the SC search under
//! every model, so the tso and pso lines drive the buffered machine's
//! own two searches directly — the behaviour search, then the buffered
//! race search, on one metrics guard — and keep pinning its state space.
//!
//! The counters are a pure function of the machine's state graph and
//! the engine's visit order, so a change to how machine states are
//! represented or interned must leave every line untouched. On a mismatch the
//! test writes the table it computed to
//! `target/buffered_state_spaces.<model>.actual` and fails; regenerating
//! the golden means copying those lines over it, which is only right
//! when the exploration itself was meant to change.

use std::path::{Path, PathBuf};

use transafety::checker::Analysis;
use transafety::interleaving::{BudgetGuard, ExploreMetrics, ExploreStats};
use transafety::lang::{parse_program, MemoryModel, ModelExplorer, Program};
use transafety::litmus::corpus;
use transafety::traces::MemoryModelKind;
use transafety::tso::{PsoModel, TsoModel};
use transafety::CancelToken;

const GOLDEN: &str = "tests/golden/buffered_state_spaces.txt";

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// `programs/*.tsl` (sorted by file name) then the litmus corpus.
fn cases() -> Vec<(String, Program)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo_path("programs"))
        .expect("programs/ directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tsl"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "programs/*.tsl corpus is missing");
    let mut out: Vec<(String, Program)> = files
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path).expect("readable program");
            let name = path.file_name().expect("file name").to_string_lossy();
            let program = parse_program(&src)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .program;
            (format!("programs/{name}"), program)
        })
        .collect();
    out.extend(
        corpus()
            .into_iter()
            .map(|l| (format!("litmus/{}", l.name), l.parse().program)),
    );
    out
}

/// The counters of the buffered machine's behaviour search followed by
/// its race search, on one metrics guard under `analysis`'s budget.
fn buffered_stats<M: MemoryModel>(model: &M, analysis: &Analysis) -> ExploreStats {
    let collector = ExploreMetrics::collector();
    let guard = BudgetGuard::with_metrics(&analysis.budget, CancelToken::new(), collector.clone());
    let mx = ModelExplorer::new(model);
    let _ = mx.behaviours_governed(&analysis.explore, &guard);
    let _ = mx.race_witness_governed(&analysis.explore, &guard);
    collector.snapshot()
}

/// One golden line: the case key, the census count and the counters.
fn line(model: MemoryModelKind, por: bool, name: &str, program: &Program) -> String {
    let analysis = Analysis::new().model(model).jobs(1).por(por).metrics(true);
    let states = analysis.census(program).output;
    let s = match model {
        MemoryModelKind::Sc => analysis.run(program).stats,
        MemoryModelKind::Tso => buffered_stats(&TsoModel::new(program), &analysis),
        MemoryModelKind::Pso => buffered_stats(&PsoModel::new(program), &analysis),
    };
    let mut out = format!(
        "{model} {por} {name} states={states} states_visited={} states_interned={} \
         moves_generated={} por_ample_hits={} por_full_expansions={} dpor_proviso_blocks={} \
         dpor_flush_ample_hits={} await_collapsed={}",
        s.states_visited,
        s.states_interned,
        s.moves_generated,
        s.por_ample_hits,
        s.por_full_expansions,
        s.dpor_proviso_blocks,
        s.dpor_flush_ample_hits,
        s.await_collapsed,
        por = if por { "por" } else { "no-por" },
    );
    if model == MemoryModelKind::Sc {
        out.push_str(&format!(
            " intern_probes={} intern_collisions={}",
            s.intern_probes, s.intern_collisions
        ));
    }
    out
}

fn assert_model_matches_golden(model: MemoryModelKind) {
    let mut actual = Vec::new();
    for (name, program) in cases() {
        for por in [true, false] {
            actual.push(line(model, por, &name, &program));
        }
    }
    let prefix = format!("{model} ");
    let golden = std::fs::read_to_string(repo_path(GOLDEN)).unwrap_or_default();
    let expected: Vec<&str> = golden.lines().filter(|l| l.starts_with(&prefix)).collect();
    if actual != expected {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("buffered_state_spaces.{model}.actual"));
        let _ = std::fs::create_dir_all(out.parent().expect("target dir"));
        let _ = std::fs::write(&out, actual.join("\n") + "\n");
        let first = actual
            .iter()
            .zip(
                expected
                    .iter()
                    .copied()
                    .chain(std::iter::repeat("<missing>")),
            )
            .find(|(a, e)| a.as_str() != *e);
        panic!(
            "{model} state spaces differ from {GOLDEN} ({} computed, {} recorded lines); \
             first difference:\n  computed: {}\n  recorded: {}\nfull table written to {}",
            actual.len(),
            expected.len(),
            first.map_or("<none>", |(a, _)| a.as_str()),
            first.map_or("<extra recorded lines>", |(_, e)| e),
            out.display()
        );
    }
}

#[test]
fn sc_state_spaces_match_golden() {
    assert_model_matches_golden(MemoryModelKind::Sc);
}

#[test]
fn tso_state_spaces_match_golden() {
    assert_model_matches_golden(MemoryModelKind::Tso);
}

#[test]
fn pso_state_spaces_match_golden() {
    assert_model_matches_golden(MemoryModelKind::Pso);
}
