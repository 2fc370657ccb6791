//! Serialisable, shrinkable transformation pipelines.
//!
//! A [`Pipeline`] is a finite sequence of [`Pass`]es; each pass names a
//! rule family ([`PassSet`]) and a deterministic *pick* into the list of
//! one-step rewrites `transafety_syntactic::rewrites` offers at that
//! point (modulo the number of applicable rewrites, so a pipeline stays
//! applicable after the program underneath it shrinks).  The textual
//! form round-trips through [`Display`](std::fmt::Display) /
//! [`FromStr`] — `elim:3 reorder:0 any:7` — which is
//! what the regression corpus under `tests/regressions/` stores.

use std::fmt;
use std::str::FromStr;

use transafety_lang::{Program, Stmt};
use transafety_litmus::Rng;
use transafety_syntactic::{rewrites, RuleName, RuleSet};

/// Which rule family a pass draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PassSet {
    /// Fig. 10 eliminations (plus trace-preserving moves).
    Eliminations,
    /// Fig. 11 reorderings (plus trace-preserving moves).
    Reorderings,
    /// Any safe rule.
    Any,
}

impl PassSet {
    /// The syntactic-engine rule set this family maps to.
    #[must_use]
    pub fn rule_set(self) -> RuleSet {
        match self {
            PassSet::Eliminations => RuleSet::Eliminations,
            PassSet::Reorderings => RuleSet::Reorderings,
            PassSet::Any => RuleSet::All,
        }
    }

    fn token(self) -> &'static str {
        match self {
            PassSet::Eliminations => "elim",
            PassSet::Reorderings => "reorder",
            PassSet::Any => "any",
        }
    }
}

/// One pass of a pipeline: a rule family and a deterministic pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass {
    /// The rule family the pass draws from.
    pub set: PassSet,
    /// Index into the applicable rewrites, taken modulo their count.
    pub pick: u32,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.set.token(), self.pick)
    }
}

/// A serialisable sequence of transformation passes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pipeline {
    /// The passes, applied left to right.
    pub passes: Vec<Pass>,
}

/// Knobs for random pipeline generation.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum number of passes (inclusive); lengths are uniform in
    /// `1..=max_passes`.
    pub max_passes: usize,
    /// Exclusive upper bound for raw pick values (picks are reduced
    /// modulo the applicable-rewrite count at application time).
    pub pick_range: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_passes: 3,
            pick_range: 64,
        }
    }
}

/// One applied pass, as recorded by [`Pipeline::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedPass {
    /// The rule the pass resolved to.
    pub rule: RuleName,
    /// The thread the rewrite happened in.
    pub thread: usize,
    /// The engine's dotted site path.
    pub site: String,
    /// `true` if the rewritten statement window touches a volatile
    /// location.  Reorderings over volatiles are roach-motel moves whose
    /// safety is conditional on the DRF guarantee, so they are excluded
    /// from the unconditional per-model refinement expectation.
    pub volatile_involved: bool,
}

impl AppliedPass {
    /// Whether this pass refines behaviours under `model` for *every*
    /// program, racy or not: trace-preserving moves always do, and the
    /// §8 fragment rules ([`RuleName::subsumed_under`]) do because the
    /// model's own machine performs them — provided no volatile access
    /// is involved (the fragment speaks about normal accesses only).
    #[must_use]
    pub fn unconditionally_refines_under(&self, model: transafety_traces::MemoryModelKind) -> bool {
        self.rule.is_trace_preserving()
            || (self.rule.subsumed_under(model) && !self.volatile_involved)
    }
}

/// The outcome of running a pipeline over a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Application {
    /// The transformed program.
    pub result: Program,
    /// The passes that found an applicable rewrite, in order.
    pub applied: Vec<AppliedPass>,
    /// Passes that had no applicable rewrite (skipped as no-ops).
    pub skipped: usize,
}

impl Application {
    /// `true` if no pass changed the program.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.applied.is_empty()
    }

    /// Whether every applied pass unconditionally refines under `model`
    /// (see [`AppliedPass::unconditionally_refines_under`]).
    #[must_use]
    pub fn unconditionally_refines_under(&self, model: transafety_traces::MemoryModelKind) -> bool {
        self.applied
            .iter()
            .all(|p| p.unconditionally_refines_under(model))
    }
}

impl Pipeline {
    /// The empty (identity) pipeline.
    #[must_use]
    pub fn identity() -> Self {
        Pipeline::default()
    }

    /// Number of passes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// `true` if the pipeline has no passes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Draw a random pipeline from `rng`.
    #[must_use]
    pub fn random(rng: &mut Rng, config: &PipelineConfig) -> Self {
        let n = rng.gen_range_usize(1, config.max_passes.max(1) + 1);
        let passes = (0..n)
            .map(|_| {
                let set = match rng.gen_range(0, 3) {
                    0 => PassSet::Eliminations,
                    1 => PassSet::Reorderings,
                    _ => PassSet::Any,
                };
                Pass {
                    set,
                    pick: rng.gen_range_u32(0, config.pick_range.max(1)),
                }
            })
            .collect();
        Pipeline { passes }
    }

    /// Apply the pipeline to `program`: each pass enumerates the
    /// one-step rewrites of its family and deterministically takes
    /// `pick % count`; a pass with no applicable rewrite is a no-op.
    #[must_use]
    pub fn apply(&self, program: &Program) -> Application {
        let mut current = program.clone();
        let mut applied = Vec::new();
        let mut skipped = 0usize;
        for pass in &self.passes {
            let mut options = rewrites(&current, pass.set.rule_set());
            if options.is_empty() {
                skipped += 1;
                continue;
            }
            let idx = pass.pick as usize % options.len();
            let chosen = options.swap_remove(idx);
            let volatile_involved = if chosen.rule.is_reordering() {
                current
                    .thread(chosen.thread)
                    .and_then(|body| site_window(body, &chosen.site))
                    .is_none_or(|window| {
                        window
                            .iter()
                            .any(|s| s.shared_locs().iter().any(|l| l.is_volatile()))
                    })
            } else {
                // Fig. 10 eliminations and T-MOV moves never fire on a
                // volatile access (their side conditions exclude them).
                false
            };
            applied.push(AppliedPass {
                rule: chosen.rule,
                thread: chosen.thread,
                site: chosen.site,
                volatile_involved,
            });
            current = chosen.result;
        }
        Application {
            result: current,
            applied,
            skipped,
        }
    }

    /// All one-step shrink candidates of the pipeline: drop one pass,
    /// truncate to a strict prefix, or halve a pick value.  Every
    /// candidate is strictly smaller under (`len`, sum of picks), so
    /// shrinking terminates.
    #[must_use]
    pub fn shrink_candidates(&self) -> Vec<Pipeline> {
        let mut out = Vec::new();
        for i in 0..self.passes.len() {
            let mut dropped = self.passes.clone();
            dropped.remove(i);
            out.push(Pipeline { passes: dropped });
        }
        if self.passes.len() > 1 {
            for keep in 1..self.passes.len() {
                out.push(Pipeline {
                    passes: self.passes[..keep].to_vec(),
                });
            }
        }
        for i in 0..self.passes.len() {
            if self.passes[i].pick > 0 {
                let mut smaller = self.passes.clone();
                smaller[i].pick /= 2;
                out.push(Pipeline { passes: smaller });
            }
        }
        out
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.passes.is_empty() {
            return write!(f, "identity");
        }
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// Error parsing a pipeline descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePipelineError(String);

impl fmt::Display for ParsePipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad pipeline descriptor: {}", self.0)
    }
}

impl std::error::Error for ParsePipelineError {}

impl FromStr for Pipeline {
    type Err = ParsePipelineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "identity" {
            return Ok(Pipeline::identity());
        }
        let mut passes = Vec::new();
        for tok in s.split_whitespace() {
            let (family, pick) = tok
                .split_once(':')
                .ok_or_else(|| ParsePipelineError(format!("missing ':' in `{tok}`")))?;
            let set = match family {
                "elim" => PassSet::Eliminations,
                "reorder" => PassSet::Reorderings,
                "any" => PassSet::Any,
                other => return Err(ParsePipelineError(format!("unknown pass family `{other}`"))),
            };
            let pick: u32 = pick
                .parse()
                .map_err(|_| ParsePipelineError(format!("bad pick in `{tok}`")))?;
            passes.push(Pass { set, pick });
        }
        Ok(Pipeline { passes })
    }
}

/// Resolve the engine's dotted site path to the (up to two) statements
/// the rewrite window starts at.  Returns `None` when the path does not
/// resolve (callers treat that conservatively).
fn site_window<'a>(thread: &'a [Stmt], site: &str) -> Option<Vec<&'a Stmt>> {
    #[derive(Clone, Copy)]
    enum Cursor<'a> {
        List(&'a [Stmt]),
        One(&'a Stmt),
    }
    let tokens: Vec<&str> = site.split('.').collect();
    let mut cursor = Cursor::List(thread);
    for (k, tok) in tokens.iter().enumerate() {
        // a lone Block statement is transparent: its body is the list
        if let Cursor::One(Stmt::Block(body)) = cursor {
            cursor = Cursor::List(body);
        }
        let last = k + 1 == tokens.len();
        match cursor {
            Cursor::List(list) => {
                let idx: usize = tok.parse().ok()?;
                if last {
                    let end = (idx + 2).min(list.len());
                    return Some(list.get(idx..end)?.iter().collect());
                }
                cursor = Cursor::One(list.get(idx)?);
            }
            Cursor::One(stmt) => match (stmt, *tok) {
                (Stmt::If { then_branch: b, .. }, "then") => cursor = Cursor::One(b),
                (Stmt::If { else_branch: b, .. }, "else") => cursor = Cursor::One(b),
                (Stmt::While { body: b, .. }, "body") => cursor = Cursor::One(b),
                _ => return None,
            },
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_lang::parse_program;

    #[test]
    fn display_parse_roundtrip() {
        for text in ["identity", "elim:3", "reorder:0 any:7 elim:12"] {
            let p: Pipeline = text.parse().unwrap();
            assert_eq!(p.to_string(), text);
            let again: Pipeline = p.to_string().parse().unwrap();
            assert_eq!(p, again);
        }
        assert_eq!("".parse::<Pipeline>().unwrap(), Pipeline::identity());
        assert!("bogus:1".parse::<Pipeline>().is_err());
        assert!("elim".parse::<Pipeline>().is_err());
    }

    #[test]
    fn apply_is_deterministic_and_picks_modulo() {
        let p = parse_program("r1 := x; r2 := x; print r2;")
            .unwrap()
            .program;
        let pipe: Pipeline = "elim:0".parse().unwrap();
        let a = pipe.apply(&p);
        let b = pipe.apply(&p);
        assert_eq!(a.result, b.result);
        assert_eq!(a.applied.len(), 1);
        // a huge pick reduces modulo the applicable count
        let pipe_large = Pipeline {
            passes: vec![Pass {
                set: PassSet::Eliminations,
                pick: u32::MAX,
            }],
        };
        let c = pipe_large.apply(&p);
        assert_eq!(c.applied.len(), 1);
    }

    #[test]
    fn inapplicable_pass_is_noop() {
        let p = parse_program("print r0;").unwrap().program;
        let pipe: Pipeline = "elim:0 reorder:1".parse().unwrap();
        let a = pipe.apply(&p);
        assert!(a.is_identity());
        assert_eq!(a.skipped, 2);
        assert_eq!(a.result, p);
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller() {
        let pipe: Pipeline = "any:8 elim:3 reorder:0".parse().unwrap();
        let weight = |p: &Pipeline| (p.len(), p.passes.iter().map(|q| q.pick as u64).sum::<u64>());
        for cand in pipe.shrink_candidates() {
            assert!(weight(&cand) < weight(&pipe), "{cand} not smaller");
        }
    }

    #[test]
    fn volatile_reordering_is_flagged() {
        // R-WR with a volatile second access: fires, but must not be
        // treated as unconditionally refining under TSO.
        let p = parse_program("volatile v; x := r0; r1 := v; print r1;")
            .unwrap()
            .program;
        let pipe: Pipeline = "reorder:0".parse().unwrap();
        let a = pipe.apply(&p);
        for pass in &a.applied {
            if pass.rule.is_reordering() {
                assert!(
                    pass.volatile_involved,
                    "{} should touch a volatile",
                    pass.rule
                );
                assert!(
                    !pass.unconditionally_refines_under(transafety_traces::MemoryModelKind::Tso)
                );
            }
        }
    }

    #[test]
    fn random_pipelines_are_seed_deterministic() {
        let config = PipelineConfig::default();
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(
                Pipeline::random(&mut a, &config),
                Pipeline::random(&mut b, &config)
            );
        }
    }

    #[test]
    fn nested_site_windows_resolve() {
        let p = parse_program("if (r0 == 1) { r1 := x; r2 := x; print r2; } else skip;")
            .unwrap()
            .program;
        let rws = transafety_syntactic::all_rewrites(&p);
        for rw in rws {
            // every reported site must resolve in the pre-program
            assert!(
                site_window(p.thread(rw.thread).unwrap(), &rw.site).is_some(),
                "site {} did not resolve",
                rw.site
            );
        }
    }
}
