//! The congruence-closure rewrite engine (the Fig. 9 transformation
//! template) and transformation-sequence enumeration.

use std::collections::HashSet;
use std::fmt;

use transafety_lang::{Program, Stmt};

use crate::rules::{pair_rewrites, segment_rewrites, RuleName};

/// The longest intervening statement sequence the elimination rules scan
/// over (the Fig. 10 `S`, generalised to a segment).
const MAX_SEGMENT: usize = 4;

/// One applicable single-step rewrite of a program: the rule, a
/// human-readable site, and the resulting program.
///
/// # Example
///
/// ```
/// use transafety_lang::parse_program;
/// use transafety_syntactic::{all_rewrites, RuleName};
/// let p = parse_program("r1 := x; r2 := x; print r2;")?.program;
/// let rewrites = all_rewrites(&p);
/// assert!(rewrites.iter().any(|r| r.rule == RuleName::ERar));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rewrite {
    /// The rule applied.
    pub rule: RuleName,
    /// The thread the rewrite happened in.
    pub thread: usize,
    /// A dotted path into the nested statement structure (list indices).
    pub site: String,
    /// The whole program after the rewrite.
    pub result: Program,
}

impl fmt::Display for Rewrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at thread {} site {}",
            self.rule, self.thread, self.site
        )
    }
}

/// Which rule families to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleSet {
    /// Fig. 10 elimination rules plus the trace-preserving moves.
    Eliminations,
    /// Fig. 11 reordering rules plus the trace-preserving moves.
    Reorderings,
    /// All safe rules.
    All,
}

impl RuleSet {
    fn admits(self, r: RuleName) -> bool {
        match self {
            RuleSet::Eliminations => r.is_elimination() || r.is_trace_preserving(),
            RuleSet::Reorderings => r.is_reordering() || r.is_trace_preserving(),
            RuleSet::All => true,
        }
    }
}

/// All one-step rewrites of a statement list (including inside nested
/// blocks, branches and loop bodies — the Fig. 9 congruence rules).
fn list_rewrites(stmts: &[Stmt], set: RuleSet, site: &str) -> Vec<(RuleName, String, Vec<Stmt>)> {
    let mut out = Vec::new();
    // window rewrites at this level
    for i in 0..stmts.len() {
        if i + 1 < stmts.len() {
            for (rule, repl) in pair_rewrites(&stmts[i], &stmts[i + 1]) {
                if !set.admits(rule) {
                    continue;
                }
                let mut new = stmts.to_vec();
                new.splice(i..i + 2, repl);
                out.push((rule, format!("{site}{i}"), new));
            }
        }
        for j in i + 2..stmts.len().min(i + 2 + MAX_SEGMENT) {
            for (rule, repl) in segment_rewrites(&stmts[i], &stmts[i + 1..j], &stmts[j]) {
                if !set.admits(rule) {
                    continue;
                }
                let mut new = stmts.to_vec();
                new.splice(i..=j, repl);
                out.push((rule, format!("{site}{i}"), new));
            }
        }
        // congruence: rewrite inside the i-th statement
        for (rule, inner_site, inner) in stmt_rewrites(&stmts[i], set, &format!("{site}{i}.")) {
            let mut new = stmts.to_vec();
            new[i] = inner;
            out.push((rule, inner_site, new));
        }
    }
    out
}

/// All one-step rewrites inside a single statement (T-BLOCK, T-IF,
/// T-WHILE of Fig. 9).
fn stmt_rewrites(s: &Stmt, set: RuleSet, site: &str) -> Vec<(RuleName, String, Stmt)> {
    match s {
        Stmt::Block(body) => list_rewrites(body, set, site)
            .into_iter()
            .map(|(r, st, b)| (r, st, Stmt::Block(b)))
            .collect(),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let mut out = Vec::new();
            for (r, st, b) in stmt_rewrites(then_branch, set, &format!("{site}then.")) {
                out.push((
                    r,
                    st,
                    Stmt::If {
                        cond: *cond,
                        then_branch: Box::new(b),
                        else_branch: else_branch.clone(),
                    },
                ));
            }
            for (r, st, b) in stmt_rewrites(else_branch, set, &format!("{site}else.")) {
                out.push((
                    r,
                    st,
                    Stmt::If {
                        cond: *cond,
                        then_branch: then_branch.clone(),
                        else_branch: Box::new(b),
                    },
                ));
            }
            out
        }
        Stmt::While { cond, body } => stmt_rewrites(body, set, &format!("{site}body."))
            .into_iter()
            .map(|(r, st, b)| {
                (
                    r,
                    st,
                    Stmt::While {
                        cond: *cond,
                        body: Box::new(b),
                    },
                )
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// All one-step rewrites of a program under the given rule set (the
/// Fig. 9 template closes the base rules under T-SEQ, T-BLOCK, T-IF,
/// T-WHILE and T-PAR).
#[must_use]
pub fn rewrites(program: &Program, set: RuleSet) -> Vec<Rewrite> {
    let mut out = Vec::new();
    for (thread, body) in program.threads().iter().enumerate() {
        for (rule, site, new_body) in list_rewrites(body, set, "") {
            let mut threads = program.threads().to_vec();
            threads[thread] = new_body;
            out.push(Rewrite {
                rule,
                thread,
                site,
                result: Program::new(threads),
            });
        }
    }
    out
}

/// All one-step rewrites under every safe rule.
#[must_use]
pub fn all_rewrites(program: &Program) -> Vec<Rewrite> {
    rewrites(program, RuleSet::All)
}

/// All one-step Fig. 10 elimination rewrites (plus trace-preserving
/// moves).
#[must_use]
pub fn elimination_rewrites(program: &Program) -> Vec<Rewrite> {
    rewrites(program, RuleSet::Eliminations)
}

/// All one-step Fig. 11 reordering rewrites (plus trace-preserving
/// moves).
#[must_use]
pub fn reordering_rewrites(program: &Program) -> Vec<Rewrite> {
    rewrites(program, RuleSet::Reorderings)
}

/// The set of programs reachable by at most `depth` rewrite steps
/// (including the original program). Deduplicated; BFS order.
///
/// Theorem 5 quantifies over "any composition of syntactic reorderings
/// or eliminations" — this enumerates that composition space, bounded.
#[must_use]
pub fn transform_closure(program: &Program, set: RuleSet, depth: usize) -> Vec<Program> {
    transform_closure_filtered(program, depth, |r| set.admits(r))
}

/// Like [`transform_closure`] but with an arbitrary rule filter —
/// used e.g. by the §8 TSO experiment, which only grants the
/// write→read-reordering and forwarding-elimination fragment.
#[must_use]
pub fn transform_closure_filtered<F: Fn(RuleName) -> bool>(
    program: &Program,
    depth: usize,
    admit: F,
) -> Vec<Program> {
    let mut order = vec![program.clone()];
    let mut seen: HashSet<Program> = HashSet::from([program.clone()]);
    let mut frontier = 0..1;
    for _ in 0..depth {
        let start = order.len();
        for i in frontier {
            for rw in rewrites(&order[i], RuleSet::All) {
                if admit(rw.rule) && !seen.contains(&rw.result) {
                    seen.insert(rw.result.clone());
                    order.push(rw.result);
                }
            }
        }
        if order.len() == start {
            break;
        }
        frontier = start..order.len();
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_lang::parse_program;

    #[test]
    fn fig1_thread1_full_elimination_chain() {
        // r1:=y; print r1; r1:=x; r2:=x; print r2
        //   ⇒ (E-RAR) … r2:=r1 … — the paper's Fig. 1 elimination.
        let p = parse_program("r1 := y; print r1; r1 := x; r2 := x; print r2;")
            .unwrap()
            .program;
        let rws = elimination_rewrites(&p);
        let erar: Vec<_> = rws.iter().filter(|r| r.rule == RuleName::ERar).collect();
        assert_eq!(erar.len(), 1);
        let s = erar[0].result.to_string();
        assert!(s.contains("r2 := r1;"), "{s}");
    }

    #[test]
    fn rewrites_descend_into_branches() {
        let p = parse_program("if (r0 == 0) { r1 := x; r2 := x; } else skip;")
            .unwrap()
            .program;
        let rws = elimination_rewrites(&p);
        assert!(rws
            .iter()
            .any(|r| r.rule == RuleName::ERar && r.site.contains("then")));
    }

    #[test]
    fn rewrites_descend_into_while_bodies() {
        let p = parse_program("while (r0 == 0) { r1 := x; r2 := x; }")
            .unwrap()
            .program;
        let rws = elimination_rewrites(&p);
        assert!(rws
            .iter()
            .any(|r| r.rule == RuleName::ERar && r.site.contains("body")));
    }

    #[test]
    fn rule_sets_filter() {
        let p = parse_program("r1 := x; r2 := y;").unwrap().program;
        assert!(elimination_rewrites(&p).is_empty());
        let rord = reordering_rewrites(&p);
        assert_eq!(rord.len(), 1);
        assert_eq!(rord[0].rule, RuleName::RRr);
        assert_eq!(all_rewrites(&p).len(), 1);
    }

    #[test]
    fn rewrites_report_threads() {
        let p = parse_program("skip; || r1 := x; r2 := x;").unwrap().program;
        let rws = elimination_rewrites(&p);
        assert!(rws.iter().all(|r| r.thread == 1));
    }

    #[test]
    fn closure_terminates_and_includes_origin() {
        let p = parse_program("r1 := x; r2 := x; print r2;")
            .unwrap()
            .program;
        let closure = transform_closure(&p, RuleSet::All, 5);
        assert!(closure.len() > 1);
        assert_eq!(closure[0], p);
        // every program in the closure is syntactically distinct
        let mut keys: Vec<String> = closure.iter().map(|q| format!("{q:?}")).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), closure.len());
    }

    #[test]
    fn move_commutation_bridges_desugared_constants() {
        // Fig. 2 thread 1 as parsed: r1:=y; rF:=1; x:=rF; print r1.
        // T-MOV + R-RW/R-WR reach the reordered x:=1; r1:=y; print r1.
        let p = parse_program("r1 := y; x := 1; print r1;").unwrap().program;
        // the reordered program, with the load moved after the store
        let t0 = p.thread(0).unwrap();
        let target = Program::new(vec![vec![
            t0[1].clone(),
            t0[2].clone(),
            t0[0].clone(),
            t0[3].clone(),
        ]]);
        let closure = transform_closure(&p, RuleSet::Reorderings, 4);
        assert!(
            closure.contains(&target),
            "closure of {} should contain {}",
            p,
            target
        );
    }

    #[test]
    fn display_of_rewrite() {
        let p = parse_program("r1 := x; r2 := x;").unwrap().program;
        let rws = elimination_rewrites(&p);
        assert!(rws[0].to_string().contains("E-RAR"));
    }
}

#[cfg(test)]
mod segment_tests {
    use super::*;
    use transafety_lang::parse_program;

    #[test]
    fn elimination_across_multi_statement_segments() {
        // Two intervening statements between the redundant loads.
        let p = parse_program("r1 := x; r3 := y; r4 := z; r2 := x; print r2;")
            .unwrap()
            .program;
        let rws = elimination_rewrites(&p);
        let erar: Vec<_> = rws.iter().filter(|r| r.rule == RuleName::ERar).collect();
        assert_eq!(erar.len(), 1, "the segment form must fire once");
        assert!(erar[0].result.to_string().contains("r2 := r1;"));
        // the intervening statements survive in order
        // (the pretty printer uses interned location names l0, l1, …)
        let s = erar[0].result.to_string();
        let iy = s.find("r3 :=").unwrap();
        let iz = s.find("r4 :=").unwrap();
        assert!(iy < iz);
    }

    #[test]
    fn segment_conditions_reject_interference() {
        // the middle touches x: no rewrite
        let p = parse_program("r1 := x; x := r9; r2 := x;").unwrap().program;
        assert!(elimination_rewrites(&p)
            .iter()
            .all(|r| r.rule != RuleName::ERar));
        // the middle touches r1: no rewrite
        let p2 = parse_program("r1 := x; r1 := 3; r2 := x;").unwrap().program;
        assert!(elimination_rewrites(&p2)
            .iter()
            .all(|r| r.rule != RuleName::ERar));
    }

    #[test]
    fn overwritten_write_across_segment() {
        let p = parse_program("x := r1; r3 := y; x := r2;").unwrap().program;
        let rws = elimination_rewrites(&p);
        let wbw: Vec<_> = rws.iter().filter(|r| r.rule == RuleName::EWbw).collect();
        assert_eq!(wbw.len(), 1);
        assert!(!wbw[0].result.to_string().contains("l0 := r1"));
    }
}
