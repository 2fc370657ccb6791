//! Smoke test of the benchmark binary: every workload at `--smoke`
//! size against the checked-in pools, in both modes.
//!
//! Run with `cargo test --manifest-path drfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "check-small",
    "check-large",
    "serve-mixed",
    "rewrite-validate",
];

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn drfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drfbench"))
        .args(args)
        .current_dir(package_dir())
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(package_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("metric list ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string ends");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// Asserts every metric is printed as `name value unit` and in the
/// result line.
fn assert_metrics(out: &str, metrics: &[(String, String)], workload: &str) {
    let result = out.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true"),
        "{workload}: {result}"
    );
    for (name, unit) in metrics {
        let printed = out.lines().any(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            words.len() == 3
                && words[0] == name
                && words[2] == unit
                && words[1].parse::<f64>().is_ok()
        });
        assert!(printed, "{workload}: {name} ({unit}) not printed:\n{out}");
        assert!(
            result.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} missing from the result line"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let metrics = benchmark_metrics("end_to_end");
    assert!(metrics.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        let out = drfbench(&["run", "--workload", w, "--seed", "1", "--smoke"]);
        assert!(
            out.status.success(),
            "{w}: {}{}",
            stdout(&out),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_metrics(&stdout(&out), &metrics, w);
    }
}

#[test]
fn traced_runs_reproduce_the_untraced_answers() {
    let metrics = benchmark_metrics("per_layer");
    for w in WORKLOADS {
        let out = drfbench(&[
            "run",
            "--workload",
            w,
            "--seed",
            "1",
            "--smoke",
            "--trace",
            "1",
        ]);
        assert!(
            out.status.success(),
            "{w}: {}{}",
            stdout(&out),
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert_metrics(&text, &metrics, w);
        assert!(
            text.lines().any(|l| l == "bench.trace_mismatches 0 count"),
            "{w}: traced answers differ:\n{text}"
        );
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

#[test]
fn an_altered_expected_answer_fails_the_run() {
    let altered = Path::new(env!("CARGO_TARGET_TMPDIR")).join("altered-data");
    let _ = std::fs::remove_dir_all(&altered);
    copy_dir(&package_dir().join("data"), &altered);
    // Flip the reference race answer of a corpus program (every run
    // includes the whole corpus) under its first model.
    let pool = altered.join("check-small.tsv");
    let text = std::fs::read_to_string(&pool).unwrap();
    let mut flipped = false;
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            let mut f: Vec<String> = line.split('\t').map(str::to_string).collect();
            if !flipped && f.len() == 7 && f[2] == "corpus" && f[4].starts_with("racy") {
                f[4] = f[4].replacen("racy", "drf", 1);
                flipped = true;
            }
            f.join("\t")
        })
        .collect();
    assert!(flipped, "no racy corpus program to alter");
    std::fs::write(&pool, lines.join("\n") + "\n").unwrap();
    let out = drfbench(&[
        "run",
        "--workload",
        "check-small",
        "--seed",
        "1",
        "--smoke",
        "--data",
        altered.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("MISMATCH"), "{text}");
    assert!(
        text.lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"),
        "{text}"
    );
}
