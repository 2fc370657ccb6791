//! E18: serve-mode soak — sustained mixed traffic through the batch
//! service.
//!
//! Fires `SERVE_SOAK_REQUESTS` (default 100 000) mixed requests through
//! one in-process [`Server`] session: a pool of litmus-corpus and
//! generated programs cycled across all three memory models, salted
//! with deliberately degraded traffic (budget-tripping `max_states:1`
//! requests, malformed lines) and a deterministic fault plan (worker
//! panics and one cache corruption at fixed admission sequence
//! numbers). The verdict cache is enabled, so the steady state is
//! dominated by cache hits — the service-level fast path the ISSUE's
//! soak criterion targets.
//!
//! The bench asserts the isolation contract at scale — every request
//! answered exactly once, counters consistent, no `drf_proven` from
//! any degraded path — then prints a JSON report (throughput plus the
//! serve section of `drfcheck-stats-v2`) and writes it to
//! `BENCH_SERVE_SOAK.json` (path overridable via `BENCH_SERVE_SOAK_OUT`;
//! request count via `SERVE_SOAK_REQUESTS`). `--test` runs the smoke
//! mode: 2 000 requests, same assertions.

use std::io::Cursor;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use transafety::serve::proto::{json_escape, parse_request};
use transafety::serve::{FaultPlan, ServeConfig, Server};
use transafety::Analysis;
use transafety_litmus::{corpus, random_program, GeneratorConfig};

/// Traffic mix per 10 requests: 7 cacheable checks, 1 model rotation
/// repeat, 1 budget-tripping probe, 1 malformed line.
const DEFAULT_REQUESTS: usize = 100_000;
const SMOKE_REQUESTS: usize = 2_000;

fn request_count() -> usize {
    if let Ok(v) = std::env::var("SERVE_SOAK_REQUESTS") {
        return v
            .parse()
            .unwrap_or_else(|_| panic!("SERVE_SOAK_REQUESTS: not a number: {v}"));
    }
    if std::env::args().any(|a| a == "--test") {
        SMOKE_REQUESTS
    } else {
        DEFAULT_REQUESTS
    }
}

/// The program pool: small, fast-to-check sources only — the soak
/// measures service overhead (admission, cache, response path), not
/// state-space exploration. Corpus entries are filtered by source
/// length as a cheap proxy for state-space size.
fn program_pool() -> Vec<String> {
    let mut pool: Vec<String> = corpus()
        .iter()
        .filter(|l| l.source.len() < 120)
        .map(|l| l.source.to_owned())
        .collect();
    let config = GeneratorConfig::default();
    pool.extend((0..8).map(|seed| random_program(seed, &config).to_string()));
    assert!(pool.len() >= 12, "pool unexpectedly small: {}", pool.len());
    pool
}

fn main() {
    let n = request_count();
    let pool = program_pool();
    let models = ["sc", "tso", "pso"];

    let mut input = String::with_capacity(n * 96);
    // The program each line carries (`None` for the malformed ones).
    let mut sources: Vec<Option<&str>> = Vec::with_capacity(n);
    let mut malformed = 0usize;
    let mut budget_probes = 0usize;
    for i in 0..n {
        match i % 10 {
            // One malformed line per decade: the server must answer it
            // with an explicit parse error, never drop it.
            9 => {
                input.push_str(&format!("{{\"id\":\"bad{i}\",\"nonsense\":1}}\n"));
                sources.push(None);
                malformed += 1;
            }
            // One budget-tripping probe per decade: degraded traffic
            // interleaved with healthy traffic, exercising the
            // no-degraded-proof discipline at volume. `por:false` keys
            // these away from the healthy traffic (the cache fingerprint
            // excludes budgets but includes POR), so every probe really
            // explores, trips, and stays uncached.
            8 => {
                let prog = &pool[i / 10 % pool.len()];
                input.push_str(&format!(
                    "{{\"id\":\"q{i}\",\"program\":\"{}\",\"max_states\":1,\"por\":false}}\n",
                    json_escape(prog)
                ));
                sources.push(Some(prog));
                budget_probes += 1;
            }
            slot => {
                let prog = &pool[(i / 10 + slot) % pool.len()];
                let model = models[(i / 10 + slot) % models.len()];
                input.push_str(&format!(
                    "{{\"id\":\"q{i}\",\"program\":\"{}\",\"model\":\"{}\"}}\n",
                    json_escape(prog),
                    model
                ));
                sources.push(Some(prog));
            }
        }
    }
    // Every request line must carry its program intact: a lossy escape
    // (newlines folded to spaces, say) turns the generator's
    // `// thread 0` comment into one that swallows the whole source.
    for (line, source) in input.lines().zip(&sources) {
        let decoded = parse_request(line);
        match source {
            Some(src) => assert_eq!(
                decoded.expect("generated request parses").program,
                *src,
                "request line does not round-trip its program: {line}"
            ),
            None => assert!(decoded.is_err(), "malformed line parsed: {line}"),
        }
    }

    let cache_dir =
        std::env::temp_dir().join(format!("transafety-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let config = ServeConfig {
        queue_depth: n.max(1),
        defaults: Analysis::new()
            .max_states(200_000)
            .timeout(std::time::Duration::from_secs(5)),
        cache_dir: Some(cache_dir.clone()),
        // A worker panic roughly every 1000 requests (retried
        // sequentially) and one cache corruption: the soak runs with
        // the fault machinery live, not just the happy path.
        faults: fault_plan(n),
        ..ServeConfig::default()
    };
    let server = Server::new(config).expect("server construction");
    let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::with_capacity(n * 160)));

    eprintln!(
        "serve-soak: firing {n} requests ({} programs, {} models)...",
        pool.len(),
        models.len()
    );
    let start = Instant::now();
    let summary = server.run(Cursor::new(input), &out);
    let elapsed = start.elapsed();

    let bytes = out.lock().unwrap().clone();
    let responses = String::from_utf8(bytes).expect("responses are utf-8");
    let lines: Vec<&str> = responses.lines().collect();

    // Isolation contract at scale: every admitted request answered
    // exactly once; counters add up; no degraded proof anywhere.
    let stats = &summary.stats;
    assert_eq!(lines.len(), n, "every request answered exactly once");
    assert_eq!(stats.requests, n as u64);
    assert_eq!(stats.parse_errors, malformed as u64);
    assert_eq!(
        stats.responses_ok
            + stats.responses_error
            + stats.responses_overloaded
            + stats.responses_cancelled
            + stats.parse_errors,
        n as u64,
        "response counters partition the traffic"
    );
    assert_eq!(
        stats.responses_overloaded, 0,
        "soak queue depth admits everything"
    );
    assert_eq!(stats.responses_cancelled, 0, "nothing drained mid-soak");
    assert!(
        stats.budget_trips >= budget_probes as u64,
        "budget probes tripped: {} trips < {budget_probes} probes",
        stats.budget_trips
    );
    assert!(
        stats.cache_hits > stats.cache_misses,
        "steady state is cache-hit dominated"
    );
    assert_eq!(
        stats.retries, stats.worker_panics,
        "every injected panic was retried once"
    );
    let expected_panics = (1 + (n.saturating_sub(9)) / 1000) as u64;
    assert_eq!(
        stats.worker_panics, expected_panics,
        "every planned panic actually fired (cache hits never reach the injection point)"
    );
    for line in &lines {
        assert!(
            !(line.contains("\"verdict\":\"drf_proven\"") && line.contains("truncated")),
            "degraded response claims a proof: {line}"
        );
    }

    let throughput = n as f64 / elapsed.as_secs_f64();
    let report = format!(
        "{{\"bench\":\"serve_soak\",\"requests\":{n},\"elapsed_secs\":{:.3},\
         \"throughput_rps\":{:.1},{}}}",
        elapsed.as_secs_f64(),
        throughput,
        summary
            .stats
            .to_json()
            .strip_prefix('{')
            .and_then(|j| j.strip_suffix('}'))
            .expect("stats JSON is one object")
    );
    println!("{report}");
    eprintln!(
        "serve-soak: {n} requests in {:.2}s ({:.0} req/s), p50 {}µs p99 {}µs max {}µs, \
         {} hits / {} misses, {} panics retried",
        elapsed.as_secs_f64(),
        throughput,
        stats.latency_quantile_micros(0.50),
        stats.latency_quantile_micros(0.99),
        stats.latency_max_micros(),
        stats.cache_hits,
        stats.cache_misses,
        stats.worker_panics,
    );

    let out_path = std::env::var("BENCH_SERVE_SOAK_OUT")
        .unwrap_or_else(|_| "BENCH_SERVE_SOAK.json".to_owned());
    std::fs::write(&out_path, format!("{report}\n")).expect("write report");
    eprintln!("serve-soak: report written to {out_path}");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Panics at admission sequences 9, 1009, 2009, … plus one corruption
/// of a freshly published cache entry early on. The panic targets are
/// budget probes (line `i ≡ 8 mod 10` ⇒ 1-based seq `≡ 9 mod 10`): a
/// probe never hits the cache, so the injected panic is guaranteed to
/// reach the worker instead of being short-circuited by a cache hit.
fn fault_plan(n: usize) -> FaultPlan {
    let mut spec = String::from("corrupt@7");
    let mut seq = 9;
    while seq <= n {
        spec.push_str(&format!(",panic@{seq}"));
        seq += 1000;
    }
    FaultPlan::parse(&spec).expect("soak fault plan")
}
