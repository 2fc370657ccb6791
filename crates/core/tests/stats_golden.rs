//! Golden-file contract for `drfcheck --stats=json`: the emitted line
//! must carry exactly the keys of `tests/golden/stats_schema.txt`, in
//! that order, with every counter a non-negative integer and the load
//! factor a finite fraction — on all four bundled workloads, on the
//! `races`/`behaviours` subcommands, and on budget-truncated (exit
//! 3/4) runs, whose partial stats must flush with the partial results.

use std::path::PathBuf;
use std::process::Command;

/// Repo-root-relative path (the test runs with the crate as cwd).
fn repo_path(rel: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
        .to_str()
        .expect("utf-8 path")
        .to_owned()
}

fn drfcheck(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_drfcheck"))
        .args(args)
        .output()
        .expect("drfcheck runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn golden_keys() -> Vec<String> {
    std::fs::read_to_string(repo_path("crates/core/tests/golden/stats_schema.txt"))
        .expect("golden schema file exists")
        .lines()
        .map(str::to_owned)
        .filter(|l| !l.is_empty())
        .collect()
}

/// Pulls the stats line out of stdout: exactly one line is the JSON
/// object and it is identifiable by its schema preamble.
fn stats_line(stdout: &str) -> String {
    let mut lines = stdout
        .lines()
        .filter(|l| l.starts_with("{\"schema\":\"drfcheck-stats-v2\""));
    let line = lines
        .next()
        .unwrap_or_else(|| panic!("no stats line in: {stdout}"))
        .to_owned();
    assert!(lines.next().is_none(), "more than one stats line: {stdout}");
    line
}

/// Splits the flat one-line JSON object into `(key, raw value)` pairs.
/// The emitter writes no nested objects, no arrays and no escapes, so
/// top-level comma/colon splitting is exact.
fn parse_flat_json(line: &str) -> Vec<(String, String)> {
    let inner = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not a JSON object: {line}"));
    inner
        .split(',')
        .map(|pair| {
            let (k, v) = pair
                .split_once(':')
                .unwrap_or_else(|| panic!("not a key:value pair: {pair}"));
            let key = k
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .unwrap_or_else(|| panic!("unquoted key: {k}"));
            (key.to_owned(), v.to_owned())
        })
        .collect()
}

/// The golden contract for one emitted stats line.
fn assert_schema(line: &str, what: &str) -> Vec<(String, String)> {
    let pairs = parse_flat_json(line);
    let keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(keys, golden_keys(), "{what}: key set or order drifted");
    for (key, value) in &pairs {
        match key.as_str() {
            "schema" => assert_eq!(value, "\"drfcheck-stats-v2\"", "{what}"),
            "enabled" => assert_eq!(value, "true", "{what}: --stats ran disabled"),
            "model" => assert!(
                matches!(value.as_str(), "\"sc\"" | "\"tso\"" | "\"pso\""),
                "{what}: unknown model token {value}"
            ),
            "load_factor" => {
                let lf: f64 = value
                    .parse()
                    .unwrap_or_else(|_| panic!("{what}: load_factor not a number: {value}"));
                assert!(
                    lf.is_finite() && (0.0..=1.0).contains(&lf),
                    "{what}: load_factor {lf} out of range"
                );
            }
            _ => {
                // Every counter must parse as an unsigned integer:
                // u64::from_str rejects `-`, `NaN`, exponents and
                // decimal points outright.
                let n: u64 = value.parse().unwrap_or_else(|_| {
                    panic!("{what}: {key} not a non-negative integer: {value}")
                });
                let _ = n;
            }
        }
    }
    pairs
}

fn counter(pairs: &[(String, String)], key: &str) -> u64 {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing counter {key}"))
        .1
        .parse()
        .expect("counter is integral")
}

const WORKLOADS: [&str; 4] = [
    "programs/private_staging.tsl",
    "programs/producer_consumer.tsl",
    "programs/racy_publish.tsl",
    "programs/spinlock_handoff.tsl",
];

#[test]
fn stats_json_matches_golden_schema_on_bundled_workloads() {
    for workload in WORKLOADS {
        let path = repo_path(workload);
        let (stdout, stderr, code) = drfcheck(&["--stats=json", "check", &path]);
        // The bundled programs span the verdict space (DRF, racy, and
        // an action-bound-truncated spin loop) — any documented
        // analysis exit is fine, the schema must hold on all of them.
        assert!(
            matches!(code, Some(0 | 1 | 3 | 4)),
            "{workload}: unexpected exit {code:?}\nstdout: {stdout}\nstderr: {stderr}"
        );
        let pairs = assert_schema(&stats_line(&stdout), workload);
        assert!(
            counter(&pairs, "states_visited") > 0,
            "{workload}: nothing explored"
        );
        assert!(
            counter(&pairs, "states_visited") <= counter(&pairs, "states_interned"),
            "{workload}: visited exceeds interned"
        );
    }
}

#[test]
fn stats_json_schema_holds_on_engine_subcommands() {
    let path = repo_path("programs/racy_publish.tsl");
    for subcommand in ["races", "behaviours"] {
        let (stdout, _, _) = drfcheck(&["--stats=json", subcommand, &path]);
        assert_schema(&stats_line(&stdout), subcommand);
    }
}

#[test]
fn stats_json_records_the_selected_model() {
    let path = repo_path("programs/racy_publish.tsl");
    for (flags, expect) in [
        (vec!["--stats=json"], "\"model\":\"sc\""),
        (vec!["--stats=json", "--model", "sc"], "\"model\":\"sc\""),
        (vec!["--stats=json", "--model", "tso"], "\"model\":\"tso\""),
        (vec!["--stats=json", "--model", "pso"], "\"model\":\"pso\""),
    ] {
        for subcommand in ["check", "races", "behaviours"] {
            let mut args = flags.clone();
            args.push(subcommand);
            args.push(&path);
            let (stdout, _, _) = drfcheck(&args);
            let line = stats_line(&stdout);
            assert_schema(&line, subcommand);
            assert!(line.contains(expect), "{subcommand} {flags:?}: {line}");
        }
    }
}

#[test]
fn unknown_model_is_a_usage_error() {
    let path = repo_path("programs/racy_publish.tsl");
    let (_, stderr, code) = drfcheck(&["--model", "arm", "check", &path]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--model"), "stderr: {stderr}");
}

#[test]
fn state_capped_run_exits_3_with_valid_stats() {
    let path = repo_path("programs/producer_consumer.tsl");
    let (stdout, stderr, code) = drfcheck(&["--stats=json", "--max-states", "1", "check", &path]);
    assert_eq!(code, Some(3), "stdout: {stdout}\nstderr: {stderr}");
    let pairs = assert_schema(&stats_line(&stdout), "state-capped check");
    assert!(
        counter(&pairs, "trip_states") > 0,
        "state cap tripped but trip_states is zero"
    );
}

#[test]
fn timed_out_run_exits_4_with_valid_stats() {
    let path = repo_path("programs/producer_consumer.tsl");
    // A 1µs deadline: the smallest positive duration the CLI accepts
    // (`--timeout 0` is a usage error, exit 2) that still reliably
    // expires before the explorer's first clock sample.
    let (stdout, stderr, code) =
        drfcheck(&["--stats=json", "--timeout", "0.000001", "check", &path]);
    assert_eq!(code, Some(4), "stdout: {stdout}\nstderr: {stderr}");
    let pairs = assert_schema(&stats_line(&stdout), "timed-out check");
    assert!(
        counter(&pairs, "trip_wall_clock") > 0,
        "deadline tripped but trip_wall_clock is zero"
    );
}

#[test]
fn trace_out_writes_the_event_dump() {
    let path = repo_path("programs/private_staging.tsl");
    let trace = std::env::temp_dir().join(format!("drfcheck-trace-{}.tsv", std::process::id()));
    let trace_path = trace.to_str().expect("utf-8 temp path").to_owned();
    let dump_of = |cmd: &str| {
        let (_, stderr, code) = drfcheck(&["--trace-out", &trace_path, cmd, &path]);
        let dump = std::fs::read_to_string(&trace);
        let _ = std::fs::remove_file(&trace);
        let dump = dump.expect("--trace-out file written");
        assert_eq!(code, Some(0), "{cmd} stderr: {stderr}");
        assert!(dump.starts_with("# drfcheck trace:"), "{dump}");
        dump
    };
    let dump = dump_of("states");
    assert!(
        dump.contains("phase_start:census") && dump.contains("phase_end:census"),
        "census phase markers missing from the states dump: {dump}"
    );
    // `check` runs behaviours then the race search, and nothing after.
    let dump = dump_of("check");
    assert!(
        dump.contains("phase_start:behaviour_eval"),
        "phase markers missing from the check dump: {dump}"
    );
    assert!(!dump.contains("census"), "check ran the census: {dump}");
    let last = dump
        .lines()
        .rfind(|l| l.contains("phase_end:"))
        .expect("a phase ended");
    assert!(
        last.contains("phase_end:race_search"),
        "check must end at the race search: {dump}"
    );
}

#[test]
fn check_records_the_same_phase_markers_at_every_job_count() {
    // The verdict phases run the sequential engine at every job count,
    // so `--jobs 2` records the same phases in the same order as
    // `--jobs 1`, and no pool phase.
    let mut paths: Vec<_> = std::fs::read_dir(repo_path("programs"))
        .expect("programs/ directory exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tsl"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "programs/*.tsl corpus is missing");
    for path in paths {
        let path = path.to_str().expect("utf-8 path");
        let markers = |jobs: &str| {
            let trace = std::env::temp_dir().join(format!(
                "drfcheck-markers-{}-{jobs}.tsv",
                std::process::id()
            ));
            let trace_path = trace.to_str().expect("utf-8 temp path");
            let (_, stderr, code) =
                drfcheck(&["--jobs", jobs, "--trace-out", trace_path, "check", path]);
            let dump = std::fs::read_to_string(&trace);
            let _ = std::fs::remove_file(&trace);
            let dump = dump.unwrap_or_else(|e| panic!("{path}: no trace ({e}): {stderr}"));
            let phases: Vec<String> = dump
                .lines()
                .filter_map(|l| l.split('\t').nth(1))
                .filter(|label| label.starts_with("phase_"))
                .map(str::to_owned)
                .collect();
            (code, phases)
        };
        let sequential = markers("1");
        assert!(!sequential.1.is_empty(), "{path}: no phase markers");
        assert_eq!(
            markers("2"),
            sequential,
            "{path}: exit code or phase markers differ"
        );
    }
}

#[test]
fn stats_off_emits_no_stats_line() {
    let path = repo_path("programs/private_staging.tsl");
    let (stdout, _, _) = drfcheck(&["check", &path]);
    assert!(
        !stdout.contains("drfcheck-stats-v2"),
        "stats emitted without --stats: {stdout}"
    );
}
