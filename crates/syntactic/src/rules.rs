//! The syntactic rewrite rules of Fig. 10 (elimination) and Fig. 11
//! (reordering).

use std::fmt;

use transafety_lang::{Operand, Stmt};

/// The name of a syntactic rewrite rule, as in Fig. 10–11 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleName {
    /// `r1:=x; S; r2:=x  ⇒  r1:=x; S; r2:=r1` — redundant read after read.
    ERar,
    /// `x:=r1; S; r2:=x  ⇒  x:=r1; S; r2:=r1` — redundant read after write.
    ERaw,
    /// `r:=x; S; x:=r  ⇒  r:=x; S` — redundant write after read.
    EWar,
    /// `x:=r1; S; x:=r2  ⇒  S; x:=r2` — overwritten write.
    EWbw,
    /// `r:=x; r:=i  ⇒  r:=i` — irrelevant read.
    EIr,
    /// `r1:=x; r2:=y  ⇒  r2:=y; r1:=x` — read/read reordering.
    RRr,
    /// `x:=r1; y:=r2  ⇒  y:=r2; x:=r1` — write/write reordering.
    RWw,
    /// `x:=r1; r2:=y  ⇒  r2:=y; x:=r1` — write/read reordering.
    RWr,
    /// `r1:=x; y:=r2  ⇒  y:=r2; r1:=x` — read/write reordering.
    RRw,
    /// `x:=r; lock m  ⇒  lock m; x:=r` — roach-motel write-into-lock.
    RWl,
    /// `r:=x; lock m  ⇒  lock m; r:=x` — roach-motel read-into-lock.
    RRl,
    /// `unlock m; x:=r  ⇒  x:=r; unlock m` — roach-motel write-into-unlock.
    RUw,
    /// `unlock m; r:=x  ⇒  r:=x; unlock m` — roach-motel read-into-unlock.
    RUr,
    /// `print r1; r2:=x  ⇒  r2:=x; print r1` — external/read reordering.
    RXr,
    /// `print r1; x:=r2  ⇒  x:=r2; print r1` — external/write reordering.
    RXw,
    /// `r:=ri; A  ⇒  A; r:=ri` — commuting a register move downwards.
    ///
    /// Register moves issue no memory action (Fig. 7's REGS rule), so
    /// this is a *trace-preserving* transformation in the sense of §2.1:
    /// it is the identity on tracesets and trivially safe. It is needed
    /// in practice because the parser's desugaring of `x := 1` inserts
    /// moves between the memory statements the Fig. 10/11 rules match on.
    TMovDown,
    /// `A; r:=ri  ⇒  r:=ri; A` — commuting a register move upwards.
    TMovUp,
}

impl RuleName {
    /// All elimination rules (Fig. 10).
    pub const ELIMINATIONS: [RuleName; 5] = [
        RuleName::ERar,
        RuleName::ERaw,
        RuleName::EWar,
        RuleName::EWbw,
        RuleName::EIr,
    ];

    /// The trace-preserving move-commutation rules (identity on
    /// tracesets; see §2.1 "Trace preserving transformations").
    pub const TRACE_PRESERVING: [RuleName; 2] = [RuleName::TMovDown, RuleName::TMovUp];

    /// All reordering rules (Fig. 11).
    pub const REORDERINGS: [RuleName; 10] = [
        RuleName::RRr,
        RuleName::RWw,
        RuleName::RWr,
        RuleName::RRw,
        RuleName::RWl,
        RuleName::RRl,
        RuleName::RUw,
        RuleName::RUr,
        RuleName::RXr,
        RuleName::RXw,
    ];

    /// Is this a Fig. 10 elimination rule?
    #[must_use]
    pub fn is_elimination(self) -> bool {
        RuleName::ELIMINATIONS.contains(&self)
    }

    /// Is this a Fig. 11 reordering rule?
    #[must_use]
    pub fn is_reordering(self) -> bool {
        RuleName::REORDERINGS.contains(&self)
    }

    /// Is this a trace-preserving (identity-on-tracesets) rule?
    #[must_use]
    pub fn is_trace_preserving(self) -> bool {
        RuleName::TRACE_PRESERVING.contains(&self)
    }

    /// Is this rule *subsumed* by the memory model — i.e. does the
    /// hardware itself already perform the transformation, so that
    /// applying it can introduce no behaviour the model did not allow?
    ///
    /// Under SC only the trace-preserving commutations qualify. TSO's
    /// store buffers perform write→read reordering and store-to-load
    /// forwarding (§8's fragment: R-WR, E-RAW, E-RAR); PSO's
    /// per-location buffers additionally reorder writes (R-WW). These
    /// are exactly the fragments the §8 explanation
    /// (`transafety_tso::explain`) filters its closure by.
    #[must_use]
    pub fn subsumed_under(self, model: transafety_traces::MemoryModelKind) -> bool {
        use transafety_traces::MemoryModelKind as Mk;
        if self.is_trace_preserving() {
            return true;
        }
        match model {
            Mk::Sc => false,
            Mk::Tso => matches!(self, RuleName::RWr | RuleName::ERaw | RuleName::ERar),
            Mk::Pso => matches!(
                self,
                RuleName::RWr | RuleName::ERaw | RuleName::ERar | RuleName::RWw
            ),
        }
    }
}

impl fmt::Display for RuleName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleName::ERar => "E-RAR",
            RuleName::ERaw => "E-RAW",
            RuleName::EWar => "E-WAR",
            RuleName::EWbw => "E-WBW",
            RuleName::EIr => "E-IR",
            RuleName::RRr => "R-RR",
            RuleName::RWw => "R-WW",
            RuleName::RWr => "R-WR",
            RuleName::RRw => "R-RW",
            RuleName::RWl => "R-WL",
            RuleName::RRl => "R-RL",
            RuleName::RUw => "R-UW",
            RuleName::RUr => "R-UR",
            RuleName::RXr => "R-XR",
            RuleName::RXw => "R-XW",
            RuleName::TMovDown => "T-MOV↓",
            RuleName::TMovUp => "T-MOV↑",
        };
        f.write_str(s)
    }
}

/// Does the intervening statement `s` satisfy the Fig. 10 side
/// conditions: sync-free, not mentioning location `x`, and not
/// mentioning any of `regs`?
fn intervening_ok(s: &Stmt, x: transafety_traces::Loc, regs: &[transafety_lang::Reg]) -> bool {
    s.is_sync_free() && !s.shared_locs().contains(&x) && regs.iter().all(|r| !s.regs().contains(r))
}

/// Tries every *pair* rule on the adjacent statements `(a, b)`; returns
/// the applicable rewrites as `(rule, replacement)`.
pub(crate) fn pair_rewrites(a: &Stmt, b: &Stmt) -> Vec<(RuleName, Vec<Stmt>)> {
    let mut out = Vec::new();
    match (a, b) {
        // --- Fig. 10 eliminations with an empty S --------------------
        (Stmt::Load { dst: r1, loc: x }, Stmt::Load { dst: r2, loc: x2 })
            if x == x2 && !x.is_volatile() =>
        {
            out.push((
                RuleName::ERar,
                vec![
                    a.clone(),
                    Stmt::Move {
                        dst: *r2,
                        src: Operand::Reg(*r1),
                    },
                ],
            ));
        }
        (Stmt::Store { loc: x, src: r1 }, Stmt::Load { dst: r2, loc: x2 })
            if x == x2 && !x.is_volatile() =>
        {
            out.push((
                RuleName::ERaw,
                vec![
                    a.clone(),
                    Stmt::Move {
                        dst: *r2,
                        src: Operand::Reg(*r1),
                    },
                ],
            ));
        }
        (Stmt::Load { dst: r, loc: x }, Stmt::Store { loc: x2, src: r2 })
            if x == x2 && r == r2 && !x.is_volatile() =>
        {
            out.push((RuleName::EWar, vec![a.clone()]));
        }
        (Stmt::Store { loc: x, src: _ }, Stmt::Store { loc: x2, src: _ })
            if x == x2 && !x.is_volatile() =>
        {
            out.push((RuleName::EWbw, vec![b.clone()]));
        }
        _ => {}
    }
    // E-IR: r:=x; r:=i
    if let (
        Stmt::Load { dst: r, loc: x },
        Stmt::Move {
            dst: r2,
            src: Operand::Const(_),
        },
    ) = (a, b)
    {
        if r == r2 && !x.is_volatile() {
            out.push((RuleName::EIr, vec![b.clone()]));
        }
    }
    // --- Fig. 11 reorderings -----------------------------------------
    let swapped = vec![b.clone(), a.clone()];
    match (a, b) {
        // R-RR: r1:=x; r2:=y  ⇒  r2:=y; r1:=x   (r1 ≠ r2, x not volatile)
        (Stmt::Load { dst: r1, loc: x }, Stmt::Load { dst: r2, loc: _ })
            if r1 != r2 && !x.is_volatile() =>
        {
            out.push((RuleName::RRr, swapped.clone()));
        }
        // R-WW: x:=r1; y:=r2  ⇒  y:=r2; x:=r1   (x ≠ y, y not volatile)
        (Stmt::Store { loc: x, .. }, Stmt::Store { loc: y, .. }) if x != y && !y.is_volatile() => {
            out.push((RuleName::RWw, swapped.clone()));
        }
        // R-WR: x:=r1; r2:=y  ⇒  r2:=y; x:=r1
        //       (r1 ≠ r2, x ≠ y, x or y not volatile)
        (Stmt::Store { loc: x, src: r1 }, Stmt::Load { dst: r2, loc: y })
            if r1 != r2 && x != y && (!x.is_volatile() || !y.is_volatile()) =>
        {
            out.push((RuleName::RWr, swapped.clone()));
        }
        // R-RW: r1:=x; y:=r2  ⇒  y:=r2; r1:=x
        //       (r1 ≠ r2, x ≠ y, x and y not volatile)
        (Stmt::Load { dst: r1, loc: x }, Stmt::Store { loc: y, src: r2 })
            if r1 != r2 && x != y && !x.is_volatile() && !y.is_volatile() =>
        {
            out.push((RuleName::RRw, swapped.clone()));
        }
        // R-WL / R-RL: sink a normal access below a later lock.
        (Stmt::Store { loc: x, .. }, Stmt::Lock(_)) if !x.is_volatile() => {
            out.push((RuleName::RWl, swapped.clone()));
        }
        (Stmt::Load { loc: x, .. }, Stmt::Lock(_)) if !x.is_volatile() => {
            out.push((RuleName::RRl, swapped.clone()));
        }
        // R-UW / R-UR: hoist a normal access above an earlier unlock.
        (Stmt::Unlock(_), Stmt::Store { loc: x, .. }) if !x.is_volatile() => {
            out.push((RuleName::RUw, swapped.clone()));
        }
        (Stmt::Unlock(_), Stmt::Load { loc: x, .. }) if !x.is_volatile() => {
            out.push((RuleName::RUr, swapped.clone()));
        }
        // R-XR / R-XW: swap a print with a later normal access.
        (Stmt::Print(r1), Stmt::Load { dst: r2, loc: x }) if r1 != r2 && !x.is_volatile() => {
            out.push((RuleName::RXr, swapped.clone()));
        }
        (Stmt::Print(_), Stmt::Store { loc: x, .. }) if !x.is_volatile() => {
            out.push((RuleName::RXw, swapped));
        }
        _ => {}
    }
    // --- trace-preserving move commutation ---------------------------
    if let Stmt::Move { dst, src } = a {
        if move_commutes_with(*dst, *src, b) {
            out.push((RuleName::TMovDown, vec![b.clone(), a.clone()]));
        }
    }
    if let Stmt::Move { dst, src } = b {
        if move_commutes_with(*dst, *src, a) {
            out.push((RuleName::TMovUp, vec![b.clone(), a.clone()]));
        }
    }
    out
}

/// The register written by an atomic statement, if any.
fn written_reg(s: &Stmt) -> Option<transafety_lang::Reg> {
    match s {
        Stmt::Load { dst, .. } | Stmt::Move { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// May `r := src` commute with the adjacent atomic statement `other`
/// without changing any thread trace? Requires `other` to be atomic
/// (no nested control flow), to not mention `r`, and to not overwrite a
/// register the move reads.
fn move_commutes_with(r: transafety_lang::Reg, src: Operand, other: &Stmt) -> bool {
    let atomic = matches!(
        other,
        Stmt::Load { .. }
            | Stmt::Store { .. }
            | Stmt::Move { .. }
            | Stmt::Lock(_)
            | Stmt::Unlock(_)
            | Stmt::Skip
            | Stmt::Print(_)
    );
    if !atomic || other.regs().contains(&r) {
        return false;
    }
    match src {
        Operand::Reg(rs) => written_reg(other) != Some(rs),
        Operand::Const(_) => true,
    }
}

/// Tries every Fig. 10 elimination rule on `(a, S, b)` where `S` is an
/// intervening *sequence* of statements, each satisfying the rule's side
/// conditions.
///
/// The paper's `S` is a single statement, but `{L}` blocks make any
/// statement list a statement, so matching a flat segment is equivalent
/// to matching the rule with `S = {s1; …; sk}` — the engine does this so
/// that programs need not be re-blocked for the rules to fire.
pub(crate) fn segment_rewrites(a: &Stmt, middle: &[Stmt], b: &Stmt) -> Vec<(RuleName, Vec<Stmt>)> {
    let mut out = Vec::new();
    let ok = |x: transafety_traces::Loc, regs: &[transafety_lang::Reg]| {
        middle.iter().all(|s| intervening_ok(s, x, regs))
    };
    let with_middle = |first: Option<&Stmt>, last: Stmt| {
        let mut v: Vec<Stmt> = first.into_iter().cloned().collect();
        v.extend(middle.iter().cloned());
        v.push(last);
        v
    };
    match (a, b) {
        (Stmt::Load { dst: r1, loc: x }, Stmt::Load { dst: r2, loc: x2 })
            if x == x2 && !x.is_volatile() && ok(*x, &[*r1, *r2]) =>
        {
            out.push((
                RuleName::ERar,
                with_middle(
                    Some(a),
                    Stmt::Move {
                        dst: *r2,
                        src: Operand::Reg(*r1),
                    },
                ),
            ));
        }
        (Stmt::Store { loc: x, src: r1 }, Stmt::Load { dst: r2, loc: x2 })
            if x == x2 && !x.is_volatile() && ok(*x, &[*r1, *r2]) =>
        {
            out.push((
                RuleName::ERaw,
                with_middle(
                    Some(a),
                    Stmt::Move {
                        dst: *r2,
                        src: Operand::Reg(*r1),
                    },
                ),
            ));
        }
        (Stmt::Load { dst: r, loc: x }, Stmt::Store { loc: x2, src: r2 })
            if x == x2 && r == r2 && !x.is_volatile() && ok(*x, &[*r]) =>
        {
            let mut v = vec![a.clone()];
            v.extend(middle.iter().cloned());
            out.push((RuleName::EWar, v));
        }
        (Stmt::Store { loc: x, src: r1 }, Stmt::Store { loc: x2, src: r2 })
            if x == x2 && !x.is_volatile() && ok(*x, &[*r1, *r2]) =>
        {
            out.push((RuleName::EWbw, with_middle(None, b.clone())));
        }
        _ => {}
    }
    out
}

/// Backwards-compatible single-statement `S` form (used by the rule
/// unit tests; the engine matches segments directly).
#[cfg(test)]
pub(crate) fn triple_rewrites(a: &Stmt, s: &Stmt, b: &Stmt) -> Vec<(RuleName, Vec<Stmt>)> {
    segment_rewrites(a, std::slice::from_ref(s), b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transafety_lang::Reg;
    use transafety_traces::{Loc, Monitor, Value};

    fn x() -> Loc {
        Loc::normal(0)
    }
    fn y() -> Loc {
        Loc::normal(1)
    }
    fn vol() -> Loc {
        Loc::volatile(2)
    }
    fn r(i: u32) -> Reg {
        Reg::new(i)
    }
    fn load(reg: Reg, loc: Loc) -> Stmt {
        Stmt::Load { dst: reg, loc }
    }
    fn store(loc: Loc, reg: Reg) -> Stmt {
        Stmt::Store { loc, src: reg }
    }

    fn rules_of(out: &[(RuleName, Vec<Stmt>)]) -> Vec<RuleName> {
        out.iter().map(|(r, _)| *r).collect()
    }

    #[test]
    fn erar_pair() {
        let out = pair_rewrites(&load(r(1), x()), &load(r(2), x()));
        assert!(rules_of(&out).contains(&RuleName::ERar));
        // result replaces the second load by a register move
        let (_, repl) = out.iter().find(|(n, _)| *n == RuleName::ERar).unwrap();
        assert_eq!(
            repl[1],
            Stmt::Move {
                dst: r(2),
                src: Operand::Reg(r(1))
            }
        );
        // volatile locations are excluded
        assert!(pair_rewrites(&load(r(1), vol()), &load(r(2), vol())).is_empty());
    }

    #[test]
    fn ewar_requires_same_register() {
        let out = pair_rewrites(&load(r(1), x()), &store(x(), r(1)));
        assert!(rules_of(&out).contains(&RuleName::EWar));
        let out2 = pair_rewrites(&load(r(1), x()), &store(x(), r(2)));
        assert!(!rules_of(&out2).contains(&RuleName::EWar));
    }

    #[test]
    fn ewbw_keeps_the_later_write() {
        let out = pair_rewrites(&store(x(), r(1)), &store(x(), r(2)));
        let (_, repl) = out.iter().find(|(n, _)| *n == RuleName::EWbw).unwrap();
        assert_eq!(repl, &vec![store(x(), r(2))]);
    }

    #[test]
    fn eir_requires_constant_overwrite_of_same_register() {
        let mv = Stmt::Move {
            dst: r(1),
            src: Operand::Const(Value::new(3)),
        };
        let out = pair_rewrites(&load(r(1), x()), &mv);
        assert!(rules_of(&out).contains(&RuleName::EIr));
        let mv_other = Stmt::Move {
            dst: r(2),
            src: Operand::Const(Value::new(3)),
        };
        assert!(!rules_of(&pair_rewrites(&load(r(1), x()), &mv_other)).contains(&RuleName::EIr));
        let mv_reg = Stmt::Move {
            dst: r(1),
            src: Operand::Reg(r(2)),
        };
        assert!(!rules_of(&pair_rewrites(&load(r(1), x()), &mv_reg)).contains(&RuleName::EIr));
    }

    #[test]
    fn rrr_side_conditions() {
        // distinct registers, first location not volatile
        assert!(
            rules_of(&pair_rewrites(&load(r(1), x()), &load(r(2), y()))).contains(&RuleName::RRr)
        );
        // same register blocked
        assert!(
            !rules_of(&pair_rewrites(&load(r(1), x()), &load(r(1), y()))).contains(&RuleName::RRr)
        );
        // volatile first location blocked (acquire may not move down)
        assert!(
            !rules_of(&pair_rewrites(&load(r(1), vol()), &load(r(2), y())))
                .contains(&RuleName::RRr)
        );
        // volatile second location allowed (normal read sinks below acquire)
        assert!(
            rules_of(&pair_rewrites(&load(r(1), x()), &load(r(2), vol()))).contains(&RuleName::RRr)
        );
        // same normal location allowed (reads never conflict)
        assert!(
            rules_of(&pair_rewrites(&load(r(1), x()), &load(r(2), x()))).contains(&RuleName::RRr)
        );
    }

    #[test]
    fn rww_and_rwr_and_rrw_side_conditions() {
        assert!(
            rules_of(&pair_rewrites(&store(x(), r(1)), &store(y(), r(2)))).contains(&RuleName::RWw)
        );
        assert!(
            !rules_of(&pair_rewrites(&store(x(), r(1)), &store(x(), r(2))))
                .contains(&RuleName::RWw)
        );
        // volatile first write may sink below a later normal write (release)
        assert!(
            rules_of(&pair_rewrites(&store(vol(), r(1)), &store(y(), r(2))))
                .contains(&RuleName::RWw)
        );
        // but a normal write may not sink below a volatile write
        assert!(
            !rules_of(&pair_rewrites(&store(x(), r(1)), &store(vol(), r(2))))
                .contains(&RuleName::RWw)
        );
        // R-WR: one of the two may be volatile
        assert!(
            rules_of(&pair_rewrites(&store(x(), r(1)), &load(r(2), vol())))
                .contains(&RuleName::RWr)
        );
        assert!(
            rules_of(&pair_rewrites(&store(vol(), r(1)), &load(r(2), y())))
                .contains(&RuleName::RWr)
        );
        // R-RW: neither may be volatile
        assert!(
            rules_of(&pair_rewrites(&load(r(1), x()), &store(y(), r(2)))).contains(&RuleName::RRw)
        );
        assert!(
            !rules_of(&pair_rewrites(&load(r(1), vol()), &store(y(), r(2))))
                .contains(&RuleName::RRw)
        );
        assert!(
            !rules_of(&pair_rewrites(&load(r(1), x()), &store(vol(), r(2))))
                .contains(&RuleName::RRw)
        );
    }

    #[test]
    fn roach_motel_rules() {
        let m = Monitor::new(0);
        assert!(
            rules_of(&pair_rewrites(&store(x(), r(0)), &Stmt::Lock(m))).contains(&RuleName::RWl)
        );
        assert!(rules_of(&pair_rewrites(&load(r(0), x()), &Stmt::Lock(m))).contains(&RuleName::RRl));
        assert!(
            rules_of(&pair_rewrites(&Stmt::Unlock(m), &store(x(), r(0)))).contains(&RuleName::RUw)
        );
        assert!(
            rules_of(&pair_rewrites(&Stmt::Unlock(m), &load(r(0), x()))).contains(&RuleName::RUr)
        );
        // the opposite directions are never generated
        assert!(pair_rewrites(&Stmt::Lock(m), &store(x(), r(0))).is_empty());
        assert!(pair_rewrites(&store(x(), r(0)), &Stmt::Unlock(m)).is_empty());
        // volatile accesses never move across locks
        assert!(pair_rewrites(&store(vol(), r(0)), &Stmt::Lock(m)).is_empty());
    }

    #[test]
    fn external_rules() {
        assert!(
            rules_of(&pair_rewrites(&Stmt::Print(r(1)), &load(r(2), x()))).contains(&RuleName::RXr)
        );
        assert!(
            !rules_of(&pair_rewrites(&Stmt::Print(r(1)), &load(r(1), x())))
                .contains(&RuleName::RXr)
        );
        assert!(
            rules_of(&pair_rewrites(&Stmt::Print(r(1)), &store(x(), r(1))))
                .contains(&RuleName::RXw)
        );
        assert!(pair_rewrites(&Stmt::Print(r(1)), &store(vol(), r(1))).is_empty());
    }

    #[test]
    fn triple_rules_respect_intervening_conditions() {
        let s_ok = Stmt::Move {
            dst: r(5),
            src: Operand::Const(Value::new(1)),
        };
        let out = triple_rewrites(&load(r(1), x()), &s_ok, &load(r(2), x()));
        assert!(rules_of(&out).contains(&RuleName::ERar));
        // S touching x is rejected
        let s_x = load(r(5), x());
        assert!(triple_rewrites(&load(r(1), x()), &s_x, &load(r(2), x())).is_empty());
        // S touching r1 is rejected
        let s_r1 = Stmt::Move {
            dst: r(1),
            src: Operand::Const(Value::ZERO),
        };
        assert!(triple_rewrites(&load(r(1), x()), &s_r1, &load(r(2), x())).is_empty());
        // S with synchronisation is rejected
        let s_sync = Stmt::Lock(Monitor::new(0));
        assert!(triple_rewrites(&load(r(1), x()), &s_sync, &load(r(2), x())).is_empty());
        // other-location accesses in S are fine
        let s_y = load(r(5), y());
        assert!(!triple_rewrites(&load(r(1), x()), &s_y, &load(r(2), x())).is_empty());
    }

    #[test]
    fn rule_classification() {
        for r in RuleName::ELIMINATIONS {
            assert!(r.is_elimination() && !r.is_reordering());
        }
        for r in RuleName::REORDERINGS {
            assert!(r.is_reordering() && !r.is_elimination());
        }
        assert_eq!(RuleName::ERar.to_string(), "E-RAR");
        assert_eq!(RuleName::RUr.to_string(), "R-UR");
    }
}
