//! Regenerates the quantitative tables of `EXPERIMENTS.md`: state-space
//! sizes, execution counts and behaviour counts per corpus program, the
//! traceset-size-vs-domain sweep, and the transformation-closure growth
//! curve.
//!
//! Run with `cargo run --example experiment_tables`.

use transafety::interleaving::Explorer;
use transafety::lang::{
    extract_traceset, parse_program, ExploreOptions, ExtractOptions, ProgramExplorer,
};
use transafety::litmus::{by_name, corpus};
use transafety::syntactic::{transform_closure, RuleSet};
use transafety::traces::Domain;
use transafety::{Analysis, MemoryModelKind};

fn main() {
    let opts = ExploreOptions::default();

    println!("Table A — corpus programs under the direct SC explorer");
    println!(
        "{:<24} {:>6} {:>8} {:>12} {:>11} {:>5}",
        "program", "stmts", "states", "executions", "behaviours", "DRF"
    );
    for l in corpus() {
        let p = l.parse().program;
        let stmts = p.threads().iter().flatten().count();
        if stmts > 14 {
            continue;
        }
        let ex = ProgramExplorer::new(&p);
        let states = ex.count_reachable_states(&opts);
        let b = ex.behaviours(&opts);
        let drf = ex.is_data_race_free(&opts);
        // execution counts via the traceset explorer (exact for loop-free)
        let d = Domain::from_values(p.constants());
        let extraction = extract_traceset(&p, &d, &ExtractOptions::default());
        let execs = if extraction.truncated {
            "≥bound".to_string()
        } else {
            Explorer::new(&extraction.traceset)
                .count_maximal_executions()
                .to_string()
        };
        println!(
            "{:<24} {:>6} {:>8} {:>12} {:>11} {:>5}",
            l.name,
            stmts,
            states,
            execs,
            format!("{}{}", b.value.len(), if b.complete { "" } else { "+" }),
            if drf { "yes" } else { "no" }
        );
    }

    println!("\nTable B — traceset size vs. read-value domain (|domain|^reads growth)");
    let p = parse_program("r1 := x; r2 := y; r3 := x; print r3;")
        .unwrap()
        .program;
    println!("{:>8} {:>14}", "|domain|", "member traces");
    for max in [0u32, 1, 2, 4, 8] {
        let d = Domain::zero_to(max);
        let e = extract_traceset(&p, &d, &ExtractOptions::default());
        println!("{:>8} {:>14}", max + 1, e.traceset.member_count());
    }

    println!("\nTable C — transformation-closure growth (Fig. 3(a), all safe rules)");
    let p = by_name("fig3-a").unwrap().parse().program;
    println!("{:>6} {:>10}", "depth", "programs");
    for depth in 0..=4 {
        let c = transform_closure(&p, RuleSet::All, depth);
        println!("{:>6} {:>10}", depth, c.len());
    }

    println!("\nTable D — SC vs TSO vs PSO state spaces (store buffers cost states)");
    println!("{:<12} {:>9} {:>9} {:>9}", "litmus", "SC", "TSO", "PSO?");
    for name in ["sb", "mp", "lb", "corr"] {
        let p = by_name(name).unwrap().parse().program;
        let [sc, tso] = [MemoryModelKind::Sc, MemoryModelKind::Tso]
            .map(|m| Analysis::new().model(m).census(&p).output);
        println!("{:<12} {:>9} {:>9} {:>9}", name, sc, tso, "-");
    }
}
