//! `drfbench compare`: the parent-versus-change rule.
//!
//! Inputs are saved outputs of `drfbench run`, one file per run, given
//! in pair order (the i-th base file was run next to the i-th head
//! file). Per workload and end-to-end metric it reports each side's
//! median and quartiles, the share of pairs the change wins, and one
//! verdict:
//!
//! * `gain` — the change wins at least 9 of 10 pairs (ties count for
//!   neither) and the medians differ by more than the base's quartile
//!   spread;
//! * `regression` — the change's median is worse than the base's by
//!   more than the metric's bound;
//! * `worse` — within the bound, but the mirror of `gain`: the base wins
//!   at least 9 of 10 pairs and the medians differ by more than the
//!   base's quartile spread. The bounds hold the host's drift between
//!   runs; on a workload steadier than that, this names a loss the
//!   bound lets through;
//! * `unresolved` — the base's own spread exceeds the bound, unless
//!   every change run beats every base run;
//! * `no-change` — otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::report::{MetricDef, END_TO_END};
use crate::stats::quartiles;

/// One saved run: its workload and metric values.
#[derive(Debug, Default)]
struct Run {
    workload: String,
    values: BTreeMap<String, f64>,
}

fn parse_run(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut run = Run::default();
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let ["#", "drfbench", "workload", w, ..] = words[..] {
            run.workload = w.to_string();
        } else if let [name, value, _unit] = words[..] {
            if let Ok(v) = value.parse::<f64>() {
                run.values.insert(name.to_string(), v);
            }
        }
    }
    if run.workload.is_empty() {
        return Err(format!("{path}: no `# drfbench workload` header"));
    }
    Ok(run)
}

fn better(def: &MetricDef, a: f64, b: f64) -> bool {
    if def.higher_is_better {
        a > b
    } else {
        a < b
    }
}

/// The verdict for one metric given base and head values in pair order.
pub fn judge(def: &MetricDef, base: &[f64], head: &[f64]) -> (&'static str, f64) {
    let (b1, bm, b3) = quartiles(base);
    let (_, hm, _) = quartiles(head);
    let pairs = base.len().min(head.len());
    let share = |n: usize| {
        if pairs == 0 {
            0.0
        } else {
            n as f64 / pairs as f64
        }
    };
    let win_share = share(
        (0..pairs)
            .filter(|&i| better(def, head[i], base[i]))
            .count(),
    );
    let loss_share = share(
        (0..pairs)
            .filter(|&i| better(def, base[i], head[i]))
            .count(),
    );
    let gap = (hm - bm).abs();
    let worse_by = if def.higher_is_better {
        bm - hm
    } else {
        hm - bm
    };
    let spread = if bm == 0.0 { 0.0 } else { (b3 - b1) / bm.abs() };
    let all_better = head
        .iter()
        .all(|&h| base.iter().all(|&b| better(def, h, b)));
    let verdict = if pairs > 0 && win_share >= 0.9 && gap > (b3 - b1) && better(def, hm, bm) {
        "gain"
    } else if worse_by > def.bound * bm.abs() {
        "regression"
    } else if pairs > 0 && loss_share >= 0.9 && gap > (b3 - b1) && better(def, bm, hm) {
        "worse"
    } else if spread > def.bound && !all_better {
        "unresolved"
    } else {
        "no-change"
    };
    (verdict, win_share)
}

pub fn compare(base_files: &[String], head_files: &[String]) -> Result<String, String> {
    let base: Vec<Run> = base_files
        .iter()
        .map(|f| parse_run(f))
        .collect::<Result<_, _>>()?;
    let head: Vec<Run> = head_files
        .iter()
        .map(|f| parse_run(f))
        .collect::<Result<_, _>>()?;
    let workloads: Vec<String> = {
        let mut w: Vec<String> = base.iter().map(|r| r.workload.clone()).collect();
        w.sort();
        w.dedup();
        w
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<17} {:<15} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "base q1/median/q3", "head q1/median/q3", "wins"
    );
    let mut regressions = 0;
    for w in &workloads {
        for def in END_TO_END {
            let collect = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| &r.workload == w)
                    .filter_map(|r| r.values.get(def.name).copied())
                    .collect()
            };
            let (b, h) = (collect(&base), collect(&head));
            if b.is_empty() || h.is_empty() {
                continue;
            }
            let (verdict, wins) = judge(&def, &b, &h);
            if verdict == "regression" {
                regressions += 1;
            }
            let q = |v: &[f64]| {
                let (a, m, c) = quartiles(v);
                format!("{a:.4}/{m:.4}/{c:.4}")
            };
            let _ = writeln!(
                out,
                "{w:<17} {:<15} {:>30} {:>30} {:>5.0}%  {verdict}",
                def.name,
                q(&b),
                q(&h),
                wins * 100.0
            );
        }
    }
    let _ = writeln!(out, "{regressions} regression(s)");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.1,
    };

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(judge(&LOWER, &base, &faster).0, "gain");
        assert_eq!(judge(&LOWER, &base, &slower).0, "regression");
        assert_eq!(judge(&LOWER, &base, &same).0, "no-change");
        let a_little_slower: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&LOWER, &base, &a_little_slower).0, "worse");
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&LOWER, &noisy, &noisy).0, "unresolved");
    }
}
