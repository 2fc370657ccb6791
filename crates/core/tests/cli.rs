//! End-to-end tests of the `drfcheck` binary.

use std::process::Command;
use std::time::{Duration, Instant};

fn drfcheck(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_drfcheck"))
        .args(args)
        .output()
        .expect("drfcheck runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (stdout, out.status.success())
}

fn drfcheck_full(args: &[&str]) -> (String, String, Option<i32>) {
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

/// A DRF (all accesses volatile) program whose reachable state space is
/// exponential in the thread count — no budgetless race search can
/// finish it in reasonable time. Each test names its own copy, so tests
/// running at once never remove each other's file.
fn exponential_program_file(test: &str) -> std::path::PathBuf {
    let thread = "v := 1; r0 := v; v := r0; r1 := v; print r1;";
    let src = format!("volatile v;\n{}", [thread; 8].join("\n|| "));
    let path = std::env::temp_dir().join(format!(
        "drfcheck-exponential-{test}-{}.tsl",
        std::process::id()
    ));
    std::fs::write(&path, src).expect("temp program is writable");
    path
}

#[test]
fn races_on_corpus_programs() {
    let (out, ok) = drfcheck(&["races", "sb"]);
    assert!(!ok, "sb is racy: non-zero exit");
    assert!(out.contains("data race between"), "{out}");
    let (out, ok) = drfcheck(&["races", "sb-volatile"]);
    assert!(ok);
    assert!(out.contains("data race free"));
}

#[test]
fn classify_pairs() {
    let (out, ok) = drfcheck(&["classify", "fig1-original", "fig1-transformed"]);
    assert!(ok, "{out}");
    assert!(out.contains("elimination"), "{out}");
    let (out, ok) = drfcheck(&["classify", "fig3-a", "fig3-b"]);
    assert!(!ok, "read introduction is outside the safe classes");
    assert!(out.contains("outside the safe classes"), "{out}");
}

#[test]
fn behaviours_lists_prefix_closed_set() {
    let (out, ok) = drfcheck(&["behaviours", "fig2-original"]);
    assert!(ok);
    assert!(
        out.lines().any(|l| l == "[]"),
        "empty behaviour always present: {out}"
    );
    assert!(out.lines().any(|l| l == "[0]"));
    assert!(
        !out.lines().any(|l| l == "[1]"),
        "fig2 original cannot print 1"
    );
}

#[test]
fn oota_and_tso_and_dot() {
    let (out, ok) = drfcheck(&["oota", "oota", "42"]);
    assert!(ok, "{out}");
    assert!(out.contains("no thin-air origin"), "{out}");
    let (out, ok) = drfcheck(&["tso", "sb"]);
    assert!(ok, "{out}");
    assert!(out.contains("relaxed"), "{out}");
    let (out, ok) = drfcheck(&["dot", "sb"]);
    assert!(ok);
    assert!(out.starts_with("digraph"));
}

/// The single-phase commands honour the global flags: the state cap
/// trips them into exit 3, `--stats=json` reports the model each ran
/// under on the last stdout line, and `dot` draws the witness of the
/// selected model.
#[test]
fn phase_commands_honour_model_budget_and_stats_flags() {
    for cmd in ["races", "behaviours", "dot", "tso", "pso"] {
        let (out, err, code) = drfcheck_full(&["--max-states", "1", cmd, "sb"]);
        assert_eq!(code, Some(3), "{cmd}: {out}{err}");
        assert!(err.contains("analysis truncated"), "{cmd}: {err}");
    }
    for cmd in [
        "check",
        "states",
        "races",
        "behaviours",
        "dot",
        "tso",
        "pso",
    ] {
        let (out, err, _) = drfcheck_full(&["--model", "tso", "--stats=json", cmd, "sb"]);
        let last = out.lines().last().unwrap_or_default();
        assert!(last.starts_with("{\"schema\""), "{cmd}: {out}{err}");
        let model = match cmd {
            "pso" => "\"model\":\"pso\"",
            _ => "\"model\":\"tso\"",
        };
        assert!(last.contains(model), "{cmd}: {last}");
    }
    // The SC-only commands refuse a relaxed model instead of ignoring it,
    // and still accept `--model sc`.
    for args in [
        &["executions", "sb"][..],
        &["classify", "fig1-original", "fig1-transformed"],
        &["correspondence", "fig1-original", "fig1-transformed"],
        &["oota", "oota", "42"],
    ] {
        let cmd = args[0];
        for model in ["tso", "pso"] {
            let (out, err, code) = drfcheck_full(&[&["--model", model][..], args].concat());
            assert_eq!(code, Some(2), "{cmd} --model {model}: {out}{err}");
            assert!(out.is_empty(), "{cmd} --model {model}: {out}");
            assert!(
                err.contains(&format!("{cmd} runs under SC only")),
                "{cmd} --model {model}: {err}"
            );
        }
        let (out, err, code) = drfcheck_full(&[&["--model", "sc"][..], args].concat());
        assert_eq!(code, drfcheck_full(args).2, "{cmd} --model sc: {out}{err}");
        assert_ne!(code, Some(2), "{cmd} --model sc: {out}{err}");
    }
    let sb = transafety::litmus::by_name("sb").unwrap().parse().program;
    let witness = transafety::Analysis::new()
        .model(transafety::MemoryModelKind::Tso)
        .races(&sb)
        .output
        .expect("sb races under TSO");
    let (tso_dot, _, code) = drfcheck_full(&["--model", "tso", "dot", "sb"]);
    assert_eq!(code, Some(0));
    assert_eq!(
        tso_dot,
        transafety::interleaving::hb_dot(&witness.witness.execution)
    );
    // The TSO witness is the SC witness with every store flushed right
    // after it is buffered, except the racing access that ends it.
    let (races, _, code) = drfcheck_full(&["--model", "tso", "races", "sb"]);
    assert_eq!(code, Some(1), "{races}");
    let schedule: Vec<&str> = races
        .lines()
        .skip_while(|l| *l != "schedule (with store-buffer flushes):")
        .skip(1)
        .map(str::trim)
        .collect();
    let (last, steps) = schedule.split_last().expect("a schedule block");
    assert!(!last.contains("flush"), "{races}");
    let mut flushes = 0;
    for (i, step) in steps.iter().enumerate() {
        if let Some((thread, action)) = step.split_once(": ") {
            if action.starts_with("W[") {
                assert_eq!(schedule[i + 1], format!("{thread}: flush"), "{races}");
                flushes += 1;
            } else if action == "flush" {
                assert!(
                    schedule[i - 1].starts_with(&format!("{thread}: W[")),
                    "{races}"
                );
            }
        }
    }
    assert!(flushes > 0, "{races}");
}

/// `guarantee` and `rewrites` run on `Analysis::guarantee`: they answer
/// under every model, a state cap trips them into exit 3 with the
/// truncation line on stderr, and `--stats=json` puts the stats, with
/// the model, on the last stdout line.
#[test]
fn guarantee_and_rewrites_honour_model_budget_and_stats_flags() {
    let guarantee = ["guarantee", "fig3-a", "fig3-b"];
    let rewrites = ["rewrites", "sb"];
    for args in [&guarantee[..], &rewrites] {
        let cmd = args[0];
        let (out, err, code) = drfcheck_full(&[&["--max-states", "1"][..], args].concat());
        assert_eq!(code, Some(3), "{cmd}: {out}{err}");
        assert!(err.contains("analysis truncated"), "{cmd}: {err}");
        assert!(err.contains("state cap"), "{cmd}: {err}");
        for model in ["sc", "tso", "pso"] {
            let (plain, err, code) = drfcheck_full(&[&["--model", model][..], args].concat());
            assert!(
                matches!(code, Some(0 | 1)),
                "{cmd} --model {model}: {plain}{err}"
            );
            assert!(!plain.is_empty(), "{cmd} --model {model}");
            let flags = ["--model", model, "--stats=json"];
            let (out, err, stats_code) = drfcheck_full(&[&flags[..], args].concat());
            assert_eq!(stats_code, code, "{cmd} --model {model}: {err}");
            let (answer, last) = out.trim_end().rsplit_once('\n').expect("answer and stats");
            assert_eq!(format!("{answer}\n"), plain, "{cmd} --model {model}");
            assert!(last.starts_with("{\"schema\""), "{cmd}: {last}");
            assert!(
                last.contains(&format!("\"model\":\"{model}\"")),
                "{cmd} --model {model}: {last}"
            );
        }
    }
    let (out, _, code) = drfcheck_full(&guarantee);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.starts_with("VIOLATION: race introduced"), "{out}");
}

/// `classify`, `correspondence` and `oota` extract tracesets without a
/// budget or metrics, so the budget and stats flags are usage errors
/// there rather than silently dropped.
#[test]
fn unbudgeted_commands_refuse_budget_and_stats_flags() {
    let trace = std::env::temp_dir().join(format!("drfcheck-refused-{}.trace", std::process::id()));
    let trace = trace.to_str().unwrap();
    for args in [
        &["classify", "fig3-a", "fig3-b"][..],
        &["correspondence", "fig3-a", "fig3-b"],
        &["oota", "oota", "42"],
    ] {
        let cmd = args[0];
        for flags in [
            &["--timeout", "5"][..],
            &["--max-states", "1"],
            &["--stats"],
            &["--stats=json"],
            &["--trace-out", trace],
        ] {
            let (out, err, code) = drfcheck_full(&[flags, args].concat());
            assert_eq!(code, Some(2), "{cmd} {flags:?}: {out}{err}");
            assert!(out.is_empty(), "{cmd} {flags:?}: {out}");
            assert!(err.contains("does not support"), "{cmd} {flags:?}: {err}");
        }
    }
    assert!(!std::path::Path::new(trace).exists());
}

/// `tso` and `pso` never present an explanation of bounded behaviour
/// sets as exact: a stdout marker says so and the exit code is 3, both
/// when a budget cap trips and when only the per-execution action bound
/// cuts a loop short.
#[test]
fn tso_and_pso_flag_bounded_explanations() {
    const MARKER: &str = "(bounded: exploration hit its limits; the explanation is not exact)";
    for cmd in ["tso", "pso"] {
        let (out, err, code) = drfcheck_full(&["--max-states", "1", cmd, "sb"]);
        assert_eq!(code, Some(3), "{cmd}: {out}{err}");
        assert_eq!(out.lines().next(), Some(MARKER), "{cmd}: {out}");
        let (out, _, code) = drfcheck_full(&[cmd, "sb"]);
        assert_eq!(code, Some(0), "{cmd}: {out}");
        assert!(!out.contains(MARKER), "{cmd}: {out}");
    }
    // A spin loop that is not await-shaped (its body also moves a
    // register) runs under the action bound; no budget cap is set.
    let path = std::env::temp_dir().join(format!("drfcheck-spin-{}.tsl", std::process::id()));
    std::fs::write(
        &path,
        "x := 1;\n||\nwhile (r0 != 1) { r0 := x; r1 := r0; }\nprint r0;\n",
    )
    .expect("temp program is writable");
    let file = path.to_str().expect("utf-8 temp path");
    for cmd in ["tso", "pso"] {
        let (out, err, code) = drfcheck_full(&[cmd, file]);
        assert_eq!(code, Some(3), "{cmd}: {out}{err}");
        assert_eq!(out.lines().next(), Some(MARKER), "{cmd}: {out}");
        assert!(err.contains("analysis truncated"), "{cmd}: {err}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn usage_on_bad_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_drfcheck"))
        .arg("frobnicate")
        .output()
        .expect("drfcheck runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"));
    // The exit-code contract is part of the help text.
    for line in ["exit codes", "--timeout", "--max-states"] {
        assert!(stderr.contains(line), "help must document {line}: {stderr}");
    }
}

#[test]
fn check_reports_three_valued_verdicts() {
    let (out, _, code) = drfcheck_full(&["check", "sb"]);
    assert_eq!(code, Some(1), "racy program exits 1: {out}");
    assert!(out.contains("verdict: racy"), "{out}");
    assert!(out.contains("completeness: complete"), "{out}");
    let (out, _, code) = drfcheck_full(&["check", "sb-volatile"]);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("verdict: data race free (proven)"), "{out}");
}

#[test]
fn states_matches_the_census_engine_and_check_skips_it() {
    use transafety::lang::parse_program;
    use transafety::{Analysis, MemoryModelKind};

    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("programs/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tsl"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    for path in &files {
        let file = path.to_str().expect("utf-8 path");
        let source = std::fs::read_to_string(path).expect("program readable");
        let program = parse_program(&source).expect("program parses").program;
        for model in MemoryModelKind::ALL {
            let expected = Analysis::new().model(model).census(&program).output;
            let (out, err, code) = drfcheck_full(&["--model", model.as_str(), "states", file]);
            assert_eq!(code, Some(0), "{file} {model}: {out}{err}");
            assert!(
                out.contains("completeness: complete"),
                "{file} {model}: {out}"
            );
            assert!(
                out.lines()
                    .any(|l| l == format!("reachable states: {expected}")),
                "{file} {model}: expected {expected} states: {out}"
            );
        }
        let (out, _, _) = drfcheck_full(&["check", file]);
        assert!(out.contains("verdict:"), "{file}: {out}");
        assert!(!out.contains("reachable states"), "{file}: {out}");
    }
}

#[test]
fn states_honours_the_budget_flags() {
    let (out, err, code) = drfcheck_full(&["--max-states", "2", "states", "sb"]);
    assert_eq!(code, Some(3), "{out}{err}");
    assert!(out.contains("completeness: truncated"), "{out}");
    assert!(err.contains("analysis truncated"), "{err}");
    let path = exponential_program_file("states_honours_the_budget_flags");
    let (out, _, code) = drfcheck_full(&["--timeout", "0.2", "states", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(4), "{out}");
    let (_, _, code) = drfcheck_full(&["--model", "arm", "states", "sb"]);
    assert_eq!(code, Some(2));
}

#[test]
fn no_por_flag_agrees_with_default() {
    for prog in ["sb", "sb-volatile"] {
        let (reduced, _, code_reduced) = drfcheck_full(&["check", prog]);
        let (full, _, code_full) = drfcheck_full(&["--no-por", "check", prog]);
        assert_eq!(code_reduced, code_full, "{prog}");
        let verdict = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("verdict:"))
                .map(str::to_owned)
        };
        assert_eq!(verdict(&reduced), verdict(&full), "{prog}");
        assert!(verdict(&reduced).is_some(), "{prog}: {reduced}");
    }
}

#[test]
fn timeout_on_exponential_program_exits_4_promptly() {
    let path = exponential_program_file("timeout_on_exponential_program_exits_4_promptly");
    let started = Instant::now();
    let (out, err, code) = drfcheck_full(&["--timeout", "1", "races", path.to_str().unwrap()]);
    let elapsed = started.elapsed();
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(4), "stdout: {out}\nstderr: {err}");
    assert!(out.contains("unknown"), "{out}");
    assert!(err.contains("truncated"), "{err}");
    assert!(err.contains("states explored"), "{err}");
    assert!(
        elapsed < Duration::from_secs(4),
        "deadline must be enforced promptly, took {elapsed:?}"
    );
}

#[test]
fn state_cap_exits_3_with_partial_report() {
    let path = exponential_program_file("state_cap_exits_3_with_partial_report");
    let (out, err, code) = drfcheck_full(&["--max-states", "64", "races", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(3), "stdout: {out}\nstderr: {err}");
    assert!(out.contains("unknown"), "{out}");
    assert!(err.contains("state cap"), "{err}");
}

#[test]
#[cfg(unix)]
fn sigint_flushes_partial_report_and_exits_4() {
    let path = exponential_program_file("sigint_flushes_partial_report_and_exits_4");
    let child = Command::new(env!("CARGO_BIN_EXE_drfcheck"))
        .args(["--jobs", "2", "races", path.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("drfcheck spawns");
    std::thread::sleep(Duration::from_millis(300));
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let out = child.wait_with_output().expect("drfcheck exits");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(4),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("unknown"), "{stdout}");
    assert!(stderr.contains("cancelled"), "{stderr}");
}

#[test]
#[cfg(unix)]
fn sigint_and_timeout_stop_guarantee_with_exit_4() {
    let path = exponential_program_file("sigint_and_timeout_stop_guarantee_with_exit_4");
    let program = path.to_str().unwrap();
    let started = Instant::now();
    let (out, err, code) = drfcheck_full(&["--timeout", "1", "guarantee", program, program]);
    let elapsed = started.elapsed();
    assert_eq!(code, Some(4), "stdout: {out}\nstderr: {err}");
    assert_eq!(out, "inconclusive\n");
    assert!(err.contains("wall-clock"), "{err}");
    assert!(elapsed < Duration::from_secs(4), "took {elapsed:?}");
    let child = Command::new(env!("CARGO_BIN_EXE_drfcheck"))
        .args(["guarantee", program, program])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("drfcheck spawns");
    std::thread::sleep(Duration::from_millis(300));
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let out = child.wait_with_output().expect("drfcheck exits");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(4),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert_eq!(stdout, "inconclusive\n");
    assert!(stderr.contains("cancelled"), "{stderr}");
}

#[test]
#[cfg(unix)]
fn closed_stdout_ends_the_process_quietly_by_sigpipe() {
    use std::os::unix::process::ExitStatusExt;
    for args in [&["litmus"][..], &["executions", "sb"]] {
        // The reader is gone before the child starts, so its first
        // write fails every time.
        let (reader, writer) = std::io::pipe().expect("pipe opens");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_drfcheck"))
            .args(args)
            .stdout(writer)
            .stderr(std::process::Stdio::piped())
            .output()
            .expect("drfcheck runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr, "", "{args:?}");
        assert_eq!(out.status.signal(), Some(13), "{args:?}: {:?}", out.status);
    }
}

#[test]
fn litmus_lists_corpus() {
    let (out, ok) = drfcheck(&["litmus"]);
    assert!(ok);
    assert!(out.lines().count() >= 30);
    assert!(out.contains("fig2-original"));
}
