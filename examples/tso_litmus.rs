//! The §8 experiment: run the litmus corpus on the SC explorer and the
//! TSO store-buffer machine, and check that every relaxed (non-SC)
//! behaviour is explained by the paper's write→read-reordering +
//! forwarding-elimination fragment.
//!
//! Run with `cargo run --example tso_litmus`.

use transafety::litmus::corpus;
use transafety::{Analysis, MemoryModelKind};

fn main() {
    let tso = Analysis::new().model(MemoryModelKind::Tso);
    let pso = Analysis::new().model(MemoryModelKind::Pso);
    println!(
        "{:<24} {:>4} {:>4} {:>8} {:>8} {:>10}",
        "litmus", "#SC", "#TSO", "relaxed", "closure", "explained"
    );
    let mut relaxed_count = 0;
    let mut all_explained = true;
    for l in corpus() {
        let p = l.parse().program;
        // skip the larger programs where the closure would be slow
        if p.threads().iter().flatten().count() > 14 {
            continue;
        }
        let e = tso.explain(&p, 3).output;
        if !e.complete {
            println!("{:<24} (bounds hit — skipped)", l.name);
            continue;
        }
        if e.relaxed {
            relaxed_count += 1;
        }
        all_explained &= e.explained;
        println!(
            "{:<24} {:>4} {:>4} {:>8} {:>8} {:>10}",
            l.name,
            e.sc.len(),
            e.behaviours.len(),
            if e.relaxed { "yes" } else { "-" },
            e.closure_size,
            if e.explained { "yes" } else { "NO" }
        );
        assert!(
            e.explained,
            "{}: a TSO behaviour escaped the transformation closure — \
             this would falsify the §8 claim",
            l.name
        );
    }
    println!(
        "\n{relaxed_count} corpus programs exhibit relaxed TSO behaviour; \
         every TSO behaviour is explained by the transformation fragment: {}",
        if all_explained { "✔" } else { "✘" }
    );

    // §8 future work: the same story for PSO (per-location buffers),
    // whose extra weakness (W→W reordering) is covered by adding R-WW.
    println!(
        "\nPSO (§8 future work) — fragment extended with R-WW:\n{:<24} {:>4} {:>8} {:>10}",
        "litmus", "#PSO", "relaxed", "explained"
    );
    for name in ["sb", "mp", "lb", "corr", "overwritten-store"] {
        let p = corpus()
            .into_iter()
            .find(|l| l.name == name)
            .unwrap()
            .parse()
            .program;
        let e = pso.explain(&p, 3).output;
        println!(
            "{:<24} {:>4} {:>8} {:>10}",
            name,
            e.behaviours.len(),
            if e.relaxed { "yes" } else { "-" },
            if e.explained { "yes" } else { "NO" }
        );
        assert!(e.explained, "{name}: unexplained PSO behaviour");
    }
    println!("\nPSO behaviours are explained by the extended fragment. ✔");
}
