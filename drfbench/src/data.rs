//! The checked-in case pools and their expected answers.
//!
//! Each workload draws its inputs from a fixed pool stored in
//! `drfbench/data/<pool>.tsv`: one line per case, holding the program
//! text (and, for rewrite cases, the pipeline or rewrite pick) next to
//! the answers the reference engines gave when the pool was blessed.
//! Storing the text rather than a generator seed keeps the inputs fixed
//! when the library's generator changes. A run's `--seed` picks a
//! stratified sample of the pool and its order, so every seed is
//! covered by the same expected file.
//!
//! Line format (tab-separated, `\` escapes for tab, newline and `\`):
//!
//! ```text
//! check     id  group  models  races            behaviours  source
//! fuzz      id  group  model   outcome          pipeline    source
//! classify  id  group  -       class/guarantee  pick        source
//! seeded    id  group  model   outcome          -           -
//! ```
//!
//! A check line lists its models (`sc,tso,pso`) and, in the same order,
//! the reference race answers (`racy`, `drf`, or `unknown` where the
//! reference could not decide) and behaviour sets (`<count>:<digest>`
//! of the complete reference set, or `-` where it was truncated).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use transafety::interleaving::Behaviours;
use transafety::litmus::Rng;
use transafety::MemoryModelKind;

/// One case of a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    pub id: String,
    /// The stratum the sampler draws from (generator shape, corpus, …).
    pub group: String,
    /// What to run and what it must answer.
    pub kind: CaseKind,
}

/// The per-kind payload of a [`Case`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseKind {
    /// `parse_program` → `Analysis::run`, once per listed model.
    Check {
        source: String,
        runs: Vec<(MemoryModelKind, CheckTruth)>,
    },
    /// `fuzz::check_pair` on a program × pipeline pair under `model`.
    Fuzz {
        model: MemoryModelKind,
        source: String,
        pipeline: String,
        outcome: String,
    },
    /// One seeded rewrite through `classify_transformation` and
    /// `drf_guarantee`; `expected` is `<class>/<guarantee>`.
    Classify {
        source: String,
        pick: u32,
        expected: String,
    },
    /// A built-in known-unsafe case, replayed by name.
    Seeded {
        model: MemoryModelKind,
        outcome: String,
    },
}

impl CaseKind {
    /// How many ops the case stands for: one per model of a check case.
    pub fn ops(&self) -> usize {
        match self {
            CaseKind::Check { runs, .. } => runs.len(),
            _ => 1,
        }
    }
}

/// The reference answer for one program under one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckTruth {
    pub race: Race,
    /// `(count, digest)` of the complete reference behaviour set.
    pub behaviours: Option<(u64, u64)>,
}

/// The race question's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Race {
    Racy,
    Drf,
    #[default]
    Unknown,
}

impl Race {
    pub fn as_str(self) -> &'static str {
        match self {
            Race::Racy => "racy",
            Race::Drf => "drf",
            Race::Unknown => "unknown",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "racy" => Ok(Race::Racy),
            "drf" => Ok(Race::Drf),
            "unknown" => Ok(Race::Unknown),
            other => Err(format!("bad race answer {other:?}")),
        }
    }
}

/// A stable digest of a behaviour set: FNV-1a over its sorted
/// rendering, so it does not depend on the library's own hashers.
pub fn behaviours_digest(set: &Behaviours) -> u64 {
    let mut text = String::new();
    for b in set {
        text.push('[');
        for (i, v) in b.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let _ = write!(text, "{v}");
        }
        text.push(']');
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in text.as_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

fn parse_model(s: &str) -> Result<MemoryModelKind, String> {
    s.parse().map_err(|e| format!("{e}"))
}

fn parse_behaviours(s: &str) -> Result<Option<(u64, u64)>, String> {
    if s == "-" {
        return Ok(None);
    }
    let (count, digest) = s
        .split_once(':')
        .ok_or_else(|| format!("bad behaviours field {s:?}"))?;
    Ok(Some((
        count.parse().map_err(|e| format!("{e}"))?,
        u64::from_str_radix(digest, 16).map_err(|e| format!("{e}"))?,
    )))
}

fn join<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(",")
}

impl Case {
    /// Renders the case as one pool line (without the newline).
    pub fn to_line(&self) -> String {
        let (kind, model, answer, extra, source) = match &self.kind {
            CaseKind::Check { source, runs } => (
                "check",
                join(runs, |(m, _)| m.as_str().to_string()),
                join(runs, |(_, t)| t.race.as_str().to_string()),
                join(runs, |(_, t)| match t.behaviours {
                    Some((count, digest)) => format!("{count}:{digest:016x}"),
                    None => "-".to_string(),
                }),
                escape(source),
            ),
            CaseKind::Fuzz {
                model,
                source,
                pipeline,
                outcome,
            } => (
                "fuzz",
                model.as_str().to_string(),
                outcome.clone(),
                escape(pipeline),
                escape(source),
            ),
            CaseKind::Classify {
                source,
                pick,
                expected,
            } => (
                "classify",
                "-".to_string(),
                expected.clone(),
                pick.to_string(),
                escape(source),
            ),
            CaseKind::Seeded { model, outcome } => (
                "seeded",
                model.as_str().to_string(),
                outcome.clone(),
                "-".to_string(),
                "-".to_string(),
            ),
        };
        format!(
            "{kind}\t{}\t{}\t{model}\t{answer}\t{extra}\t{source}",
            self.id, self.group
        )
    }

    /// Parses one pool line.
    pub fn from_line(line: &str) -> Result<Case, String> {
        let fields: Vec<&str> = line.split('\t').collect();
        let [kind, id, group, model, answer, extra, source] = fields[..] else {
            return Err(format!("expected 7 fields, got {}", fields.len()));
        };
        let kind = match kind {
            "check" => {
                let models: Vec<&str> = model.split(',').collect();
                let races: Vec<&str> = answer.split(',').collect();
                let behaviours: Vec<&str> = extra.split(',').collect();
                if races.len() != models.len() || behaviours.len() != models.len() {
                    return Err("models, races and behaviours differ in length".into());
                }
                let runs = models
                    .iter()
                    .zip(races)
                    .zip(behaviours)
                    .map(|((m, r), b)| {
                        Ok((
                            parse_model(m)?,
                            CheckTruth {
                                race: Race::parse(r)?,
                                behaviours: parse_behaviours(b)?,
                            },
                        ))
                    })
                    .collect::<Result<_, String>>()?;
                CaseKind::Check {
                    source: unescape(source)?,
                    runs,
                }
            }
            "fuzz" => CaseKind::Fuzz {
                model: parse_model(model)?,
                source: unescape(source)?,
                pipeline: unescape(extra)?,
                outcome: answer.to_string(),
            },
            "classify" => CaseKind::Classify {
                source: unescape(source)?,
                pick: extra.parse().map_err(|e| format!("{e}"))?,
                expected: answer.to_string(),
            },
            "seeded" => CaseKind::Seeded {
                model: parse_model(model)?,
                outcome: answer.to_string(),
            },
            other => return Err(format!("unknown case kind {other:?}")),
        };
        Ok(Case {
            id: id.to_string(),
            group: group.to_string(),
            kind,
        })
    }
}

/// The directory holding the pools: `data/` next to the manifest the
/// binary was built from.
pub fn default_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("data")
}

/// The repository the benchmark package sits in (its manifest's parent).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

pub fn pool_path(dir: &Path, pool: &str) -> PathBuf {
    dir.join(format!("{pool}.tsv"))
}

/// Reads a pool file; blank lines and `#` comments are skipped.
pub fn load(path: &Path) -> Result<Vec<Case>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .map(|(n, l)| Case::from_line(l).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1)))
        .collect()
}

/// Writes a pool file with a one-line header comment.
pub fn store(path: &Path, header: &str, cases: &[Case]) -> Result<(), String> {
    let mut text = format!("# {header}\n");
    for c in cases {
        text.push_str(&c.to_line());
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// How many cases to draw from each group (`None` = all of them).
pub type Quota = BTreeMap<&'static str, Option<usize>>;

/// The seeded stratified sample, as indices into `cases`: for each
/// group, `quota` cases drawn without replacement, in pool order.
/// Groups without a quota entry are left out.
pub fn sample(cases: &[Case], quota: &Quota, rng: &mut Rng) -> Vec<usize> {
    let mut by_group: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, c) in cases.iter().enumerate() {
        by_group.entry(c.group.as_str()).or_default().push(i);
    }
    let mut out: Vec<usize> = Vec::new();
    for (group, mut members) in by_group {
        let Some(want) = quota.get(group) else {
            continue;
        };
        shuffle(&mut members, rng);
        members.truncate(want.unwrap_or(members.len()));
        out.extend(members);
    }
    out.sort_unstable();
    out
}

/// Fisher–Yates with the library's deterministic generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range_usize(0, i + 1);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_case(id: &str, group: &str) -> Case {
        Case {
            id: id.into(),
            group: group.into(),
            kind: CaseKind::Check {
                source: "x := 1;\n||\nr0 := x;\tprint r0; // a\\b".into(),
                runs: vec![
                    (
                        MemoryModelKind::Sc,
                        CheckTruth {
                            race: Race::Racy,
                            behaviours: Some((3, 0xdead_beef)),
                        },
                    ),
                    (
                        MemoryModelKind::Tso,
                        CheckTruth {
                            race: Race::Unknown,
                            behaviours: None,
                        },
                    ),
                ],
            },
        }
    }

    #[test]
    fn lines_round_trip() {
        let cases = [
            check_case("p1", "gen:default"),
            Case {
                id: "f7".into(),
                group: "fuzz".into(),
                kind: CaseKind::Fuzz {
                    model: MemoryModelKind::Pso,
                    source: "r1 := x; r2 := x; print r2;".into(),
                    pipeline: "elim:0".into(),
                    outcome: "refines".into(),
                },
            },
            Case {
                id: "c2".into(),
                group: "classify:awaits".into(),
                kind: CaseKind::Classify {
                    source: "x := 1;".into(),
                    pick: 42,
                    expected: "elimination/holds".into(),
                },
            },
            Case {
                id: "ewbw_tso".into(),
                group: "seeded".into(),
                kind: CaseKind::Seeded {
                    model: MemoryModelKind::Tso,
                    outcome: "detected".into(),
                },
            },
        ];
        for c in cases {
            assert_eq!(Case::from_line(&c.to_line()).unwrap(), c);
        }
    }

    #[test]
    fn sampling_is_seeded_and_stratified() {
        let cases: Vec<Case> = (0..40)
            .map(|i| check_case(&format!("p{i}"), if i % 2 == 0 { "even" } else { "odd" }))
            .collect();
        let quota: Quota = [("even", Some(5)), ("odd", None)].into_iter().collect();
        let draw = |seed| sample(&cases, &quota, &mut Rng::seed_from_u64(seed));
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert_eq!(draw(1).len(), 5 + 20);
        assert_eq!(
            draw(1)
                .iter()
                .filter(|&&i| cases[i].group == "even")
                .count(),
            5
        );
    }
}
