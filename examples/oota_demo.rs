//! The out-of-thin-air guarantee (Theorem 5), demonstrated on the §5
//! example and on random racy programs: no composition of the paper's
//! transformations can make a program read, write or output a constant
//! it never mentions.
//!
//! Run with `cargo run --example oota_demo`.

use transafety::checker::{no_thin_air, Analysis, OotaVerdict};
use transafety::litmus::{by_name, random_program, GeneratorConfig};
use transafety::traces::{Domain, Value};

fn main() {
    // The §5 candidate: r2:=y; x:=r2; print r2 || r1:=x; y:=r1.
    // The program is racy, so the DRF guarantee promises *nothing* —
    // yet 42 can still never appear.
    let program = by_name("oota").unwrap().parse().program;
    println!("program:\n{program}");

    let opts = Analysis::with_domain(Domain::from_values([Value::new(1), Value::new(42)]));
    let racy = opts.races(&program).output.is_some();
    println!("racy: {racy} (the DRF guarantee is vacuous here)");

    let verdict = no_thin_air(&program, Value::new(42), 4, &opts);
    match &verdict {
        OotaVerdict::Safe { closure_size } => println!(
            "Theorem 5 verified: across {closure_size} transformed programs, \
             no trace originates 42 — no execution can read, write or print it."
        ),
        other => panic!("out-of-thin-air violation?! {other}"),
    }

    // Scale it out: random racy programs over constants {0, 1, 2} can
    // never conjure 7, however they are transformed.
    let config = GeneratorConfig::default();
    let opts7 = Analysis::with_domain(Domain::from_values([Value::new(2), Value::new(7)]));
    let mut checked = 0;
    for seed in 0..25 {
        let p = random_program(seed, &config);
        if p.mentions_constant(Value::new(7)) {
            continue; // the theorem's hypothesis requires absence
        }
        match no_thin_air(&p, Value::new(7), 2, &opts7) {
            OotaVerdict::Safe { .. } => checked += 1,
            OotaVerdict::Inconclusive => {}
            other => panic!("seed {seed}: {other}\n{p}"),
        }
    }
    println!("…and across {checked} random programs (depth-2 transformation closures). ✔");
}
