//! The `serve-mixed` load: an in-process `serve::Server` fed by a
//! closed-loop client.
//!
//! The client holds one request outstanding: it hands the server's
//! reader the next request line as soon as the previous answer has been
//! written, and times each request from that hand-over to its answer.
//! Requests are drawn from the `check-small` sample; a share of them
//! repeat an earlier request with its registers renamed, which the
//! verdict cache maps to the same key.
//!
//! An open loop (seeded Poisson arrivals, each request timed from when
//! it was due) measured the host rather than the server: requests
//! queued behind each slow one, so a slower spell of the host grew the
//! queue, and over ten runs of the same code the p50 spread by up to 37%
//! and the p99 by up to 125%. With one request outstanding a request's
//! latency is its own trip through the reader, admission, the queue, a
//! worker and the response, and it moves in step with the host's speed.
//!
//! The server runs without the disk-backed verdict cache: each entry
//! written costs 0.03–0.5 ms depending on the disk's state, which made
//! the disk, not the checker, set the latencies, and deleting a run's
//! entries slowed the runs after it. The traced replay runs the cache
//! layers against a fresh cache directory.

use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use transafety::litmus::Rng;
use transafety::serve::proto::{json_escape, parse_flat_object};
use transafety::serve::{ServeConfig, Server, VerdictCache};
use transafety::MemoryModelKind;

use crate::data::Race;
use crate::ops::{self, Answer, CheckAnswer};
use crate::stats::{self, Windowed};
use crate::trace::Tracer;
use crate::workload::{check_run, Breaks, Measured, Op, Prepared, Workload};

/// Share of requests that repeat an earlier one under renamed registers.
const REPEAT_SHARE: f64 = 0.4;
/// Requests answered `ok` within this many ms meet the service
/// objective.
const SLO_MS: f64 = 20.0;
/// How long the client waits for an answer before it ends the run; the
/// unanswered request is reported as a failure.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);
/// Throughput is taken per window of this many requests, the median
/// over windows reported, so that a spell of a slow host moves the
/// windows it falls in, not the result.
const RATE_WINDOW: usize = 250;

/// One request handed to the server.
#[derive(Debug)]
pub struct Sent {
    pub op: Op,
    /// The request line, kept only when the run keeps its responses for
    /// a replay (empty otherwise).
    pub line: String,
    /// When the line was handed to the server's reader.
    pub released: Instant,
}

/// The run's tallies, updated as each response is written, so that
/// only the unanswered request is held (and, for a replay, the
/// responses).
struct State {
    prep: Arc<Prepared>,
    keep_responses: bool,
    sent: usize,
    pending: HashMap<usize, Sent>,
    m: Measured,
    met_slo: u64,
    /// Per request, the client's turnaround: from the previous answer
    /// to this request's release.
    lags_ms: Windowed,
    last_answer: Option<Instant>,
    /// Requests and seconds of the open throughput window.
    window: (usize, f64),
    rates: Vec<f64>,
    responses: Vec<Response>,
    /// Time taken out of the run for breaks.
    paused: Duration,
}

impl State {
    fn new(prep: Arc<Prepared>, keep_responses: bool) -> Self {
        State {
            prep,
            keep_responses,
            sent: 0,
            pending: HashMap::new(),
            m: Measured::default(),
            met_slo: 0,
            lags_ms: Windowed::default(),
            last_answer: None,
            window: (0, 0.0),
            rates: Vec::new(),
            responses: Vec::new(),
            paused: Duration::ZERO,
        }
    }

    /// Matches one response line, written at `at`, to its request,
    /// checks the answer and updates the tallies.
    fn answer(&mut self, line: &str, at: Instant) {
        // The request's cycle runs from the previous answer (or, after a
        // break, from its release) to this one.
        let cycle_start = self.last_answer.take();
        self.last_answer = Some(at);
        let (id, ok, answer, elapsed_ms, error) = match parse_response(line) {
            Ok(r) => r,
            Err(e) => {
                return self
                    .m
                    .record_failure(format!("unparsable response {line:?}: {e}"))
            }
        };
        let Some(sent) = self.pending.remove(&id) else {
            return self
                .m
                .record_failure(format!("response to unknown request {id}"));
        };
        let case = self.prep.case(sent.op);
        let (_, _, truth) =
            check_run(case, sent.op.slot).expect("serve-mixed draws from check cases only");
        let mut good = ok;
        if let Some(e) = &error {
            self.m.errors += 1;
            self.m
                .record_failure(format!("request {id} ({} {}): {e}", case.group, case.id));
        } else if let Err(e) = ops::check_consistent(truth, &answer) {
            good = false;
            self.m
                .record_failure(format!("request {id} ({} {}): {e}", case.group, case.id));
        }
        if ok && answer.verdict != Race::Unknown {
            self.m.decided += 1;
        }
        let latency = at.duration_since(sent.released).as_secs_f64() * 1e3;
        self.m.latency.push(latency);
        if good && latency <= SLO_MS {
            self.met_slo += 1;
        }
        let began = cycle_start.unwrap_or(sent.released);
        self.window.0 += 1;
        self.window.1 += at.saturating_duration_since(began).as_secs_f64();
        if self.window.0 == RATE_WINDOW {
            self.close_rate_window();
        }
        if self.keep_responses {
            self.responses.push(Response {
                sent,
                at,
                ok,
                answer,
                elapsed_ms,
            });
        }
    }

    fn close_rate_window(&mut self) {
        self.rates.push(self.window.0 as f64 / self.window.1);
        self.window = (0, 0.0);
    }

    /// The run's measurements; a request still pending was never
    /// answered.
    fn finish(mut self, wall: f64, cpu: f64) -> (Measured, Vec<Response>) {
        let mut unanswered: Vec<usize> = self.pending.keys().copied().collect();
        unanswered.sort_unstable();
        for id in unanswered {
            self.m
                .record_failure(format!("request {id} was never answered"));
        }
        // A run shorter than a window still reports; otherwise a
        // partial last window is dropped.
        if self.rates.is_empty() && self.window.0 > 0 {
            self.close_rate_window();
        }
        let mut m = self.m;
        m.attempted = self.sent as u64;
        m.wall_s = wall - self.paused.as_secs_f64();
        // Failed and unanswered requests count as misses.
        m.slo_attainment = Some(self.met_slo as f64 / m.attempted.max(1) as f64);
        m.generator_lag_p99_ms = self.lags_ms.p99();
        m.throughput = stats::median(&self.rates);
        m.cpu_ms_per_op = cpu * 1e3 / m.attempted.max(1) as f64;
        (m, self.responses)
    }
}

/// The state the client and the response sink share, and the signal
/// that an answer came in.
struct Shared {
    state: Mutex<State>,
    answered: Condvar,
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared
        .state
        .lock()
        .expect("the load generator's state is only touched by non-panicking code")
}

/// Deterministic request source: fresh ops in sample order and, with
/// probability [`REPEAT_SHARE`], a register-renamed repeat of an earlier
/// fresh op of the same stream.
struct RequestGen {
    rng: Rng,
    fresh: usize,
}

impl RequestGen {
    fn new(seed: u64) -> Self {
        RequestGen {
            rng: Rng::seed_from_u64(seed ^ 0x5E4E_0000_0000_0000),
            fresh: 0,
        }
    }

    /// The next op and its request body (without the id).
    fn next(&mut self, prep: &Prepared) -> (Op, String) {
        let repeat = self.fresh > 0 && self.rng.gen_bool(REPEAT_SHARE);
        let (op, rename) = if repeat {
            let i = self.rng.gen_range_usize(0, self.fresh);
            (prep.op(i), 1 + self.rng.gen_range_u32(0, 50))
        } else {
            self.fresh += 1;
            (prep.op(self.fresh - 1), 0)
        };
        let (source, model, _) =
            check_run(prep.case(op), op.slot).expect("serve-mixed draws from check cases only");
        let body = format!(
            "\"program\":\"{}\",\"model\":\"{}\"",
            json_escape(&rename_registers(source, rename)),
            model.as_str()
        );
        (op, body)
    }
}

/// Renames every `rN` register token to `r(N + shift)`: a different
/// spelling of the same program, which cache normalisation undoes.
pub fn rename_registers(source: &str, shift: u32) -> String {
    if shift == 0 {
        return source.to_string();
    }
    let mut out = String::with_capacity(source.len() + 16);
    let mut chars = source.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if !(c.is_ascii_alphanumeric() || c == '_') {
            out.push(c);
            continue;
        }
        let mut end = start + c.len_utf8();
        while let Some(&(i, d)) = chars.peek() {
            if d.is_ascii_alphanumeric() || d == '_' {
                end = i + d.len_utf8();
                chars.next();
            } else {
                break;
            }
        }
        let word = &source[start..end];
        match word.strip_prefix('r').and_then(|n| n.parse::<u32>().ok()) {
            Some(n) if word.len() > 1 && word[1..].bytes().all(|b| b.is_ascii_digit()) => {
                out.push_str(&format!("r{}", n + shift));
            }
            _ => out.push_str(word),
        }
    }
    out
}

/// The client: produces each request line once the previous one is
/// answered. The server's reader thread reads them, so the client costs
/// no extra thread.
struct Feeder {
    prep: Arc<Prepared>,
    shared: Arc<Shared>,
    gen: RequestGen,
    end: Instant,
    breaks: Option<Breaks>,
    next_break: Option<Instant>,
    buf: Vec<u8>,
    pos: usize,
}

impl Feeder {
    /// Waits for the previous answer and returns the next request line,
    /// or `None` once the run's time is up or an answer never came.
    fn release(&mut self) -> Option<Vec<u8>> {
        if !self.wait_for_answer() {
            return None;
        }
        let now = Instant::now();
        if now >= self.end {
            return None;
        }
        if let Some(at) = self.next_break.filter(|&at| now >= at) {
            self.take_break(at);
        }
        let (op, body) = self.gen.next(&self.prep);
        let mut state = lock(&self.shared);
        let id = state.sent;
        state.sent += 1;
        let line = format!("{{\"id\":\"{id}\",{body}}}");
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        let line = if state.keep_responses {
            line
        } else {
            String::new()
        };
        let released = Instant::now();
        if let Some(prev) = state.last_answer {
            let lag = released.duration_since(prev).as_secs_f64() * 1e3;
            state.lags_ms.push(lag);
        }
        state.pending.insert(id, Sent { op, line, released });
        Some(bytes)
    }

    /// Blocks until every request handed over is answered; `false` when
    /// one is still unanswered after [`ANSWER_TIMEOUT`].
    fn wait_for_answer(&self) -> bool {
        let give_up = Instant::now() + ANSWER_TIMEOUT;
        let mut state = lock(&self.shared);
        while !state.pending.is_empty() {
            let now = Instant::now();
            if now >= give_up {
                return false;
            }
            state = self
                .shared
                .answered
                .wait_timeout(state, give_up - now)
                .expect("the load generator's state is only touched by non-panicking code")
                .0;
        }
        true
    }

    /// Runs the break due at `at` while nothing is outstanding and
    /// shifts the rest of the run by the time it took, so that the
    /// break is off the run's clock.
    fn take_break(&mut self, at: Instant) {
        let Some(breaks) = self.breaks.as_mut() else {
            return;
        };
        let t0 = Instant::now();
        (breaks.run)();
        let took = t0.elapsed();
        self.end += took;
        self.next_break = Some(at + took + Duration::from_secs_f64(breaks.every_s));
        let mut state = lock(&self.shared);
        state.paused += took;
        state.last_answer = None;
    }
}

impl Read for Feeder {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feeder {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.release() {
                Some(line) => {
                    self.buf = line;
                    self.pos = 0;
                }
                None => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// Timestamps each response line as the server writes it, tallies it
/// and wakes the client.
struct Sink {
    shared: Arc<Shared>,
    partial: Vec<u8>,
}

impl Write for Sink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        for &b in bytes {
            if b == b'\n' {
                let at = Instant::now();
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.partial.clear();
                lock(&self.shared).answer(&line, at);
                self.shared.answered.notify_all();
            } else {
                self.partial.push(b);
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One response, matched to the request it answers.
#[derive(Debug)]
pub struct Response {
    pub sent: Sent,
    pub at: Instant,
    pub ok: bool,
    pub answer: CheckAnswer,
    /// The server's own time from admission to answer.
    pub elapsed_ms: f64,
}

fn parse_response(line: &str) -> Result<(usize, bool, CheckAnswer, f64, Option<String>), String> {
    let pairs = parse_flat_object(line)?;
    let get = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    let id: usize = get("id")
        .and_then(|v| v.as_str())
        .and_then(|s| s.parse().ok())
        .ok_or("response without a numeric id")?;
    let status = get("status").and_then(|v| v.as_str()).unwrap_or("");
    if status != "ok" {
        let err = get("error").and_then(|v| v.as_str()).unwrap_or("");
        return Ok((
            id,
            false,
            CheckAnswer::default(),
            0.0,
            Some(format!("{status}: {err}")),
        ));
    }
    let verdict = match get("verdict").and_then(|v| v.as_str()) {
        Some("racy") => Race::Racy,
        Some("drf_proven") => Race::Drf,
        _ => Race::Unknown,
    };
    let answer = CheckAnswer {
        verdict,
        complete: get("behaviours_complete")
            .and_then(|v| v.as_bool())
            .unwrap_or(false),
        count: get("behaviours").and_then(|v| v.as_u64()).unwrap_or(0),
        digest: None,
        exact: get("completeness").and_then(|v| v.as_str()) == Some("complete"),
    };
    let elapsed_ms = get("elapsed_micros").and_then(|v| v.as_u64()).unwrap_or(0) as f64 / 1e3;
    Ok((id, true, answer, elapsed_ms, None))
}

/// The defaults every request runs under (each request sets its model).
pub fn defaults() -> transafety::Analysis {
    Workload::ServeMixed.analysis(MemoryModelKind::Sc)
}

/// Starts a server with one worker (see [`Workload::analysis`] for the
/// jobs each request explores on).
pub fn start_server() -> Result<Server, String> {
    Server::new(ServeConfig {
        workers: 1,
        queue_depth: 1 << 20,
        defaults: defaults(),
        cache_dir: None,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the server: {e}"))
}

/// Feeds `server` for `seconds`, plus any `breaks`, and matches every
/// answer to its request. The responses are returned only with
/// `keep_responses`, for a replay.
pub fn run(
    server: &Server,
    prep: &Arc<Prepared>,
    seed: u64,
    seconds: f64,
    keep_responses: bool,
    breaks: Option<Breaks>,
) -> (Measured, Vec<Response>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::new(Arc::clone(prep), keep_responses)),
        answered: Condvar::new(),
    });
    let cpu0 = stats::process_cpu_seconds();
    let start = Instant::now();
    let feeder = Feeder {
        prep: Arc::clone(prep),
        shared: Arc::clone(&shared),
        gen: RequestGen::new(seed),
        end: start + Duration::from_secs_f64(seconds),
        next_break: breaks
            .as_ref()
            .map(|b| start + Duration::from_secs_f64(b.every_s)),
        breaks,
        buf: Vec::new(),
        pos: 0,
    };
    let sink = Arc::new(Mutex::new(Sink {
        shared: Arc::clone(&shared),
        partial: Vec::new(),
    }));
    server.run(feeder, &sink);
    let wall = start.elapsed().as_secs_f64();
    let cpu = stats::process_cpu_seconds() - cpu0;
    let state = std::mem::replace(&mut *lock(&shared), State::new(Arc::clone(prep), false));
    state.finish(wall, cpu)
}

/// What a replay of the answered requests measured.
pub struct Replayed {
    /// Per replayed request, its service time in ms and whether the
    /// replay's cache answered it.
    pub service: Vec<(f64, bool)>,
    /// Replayed answers that differ from the server's.
    pub mismatches: u64,
}

/// Replays the answered requests in admission order through the layers
/// the server calls, against a fresh cache: untraced with a
/// disabled tracer, traced otherwise. Stops after `seconds`.
pub fn replay(
    responses: &[Response],
    cache_dir: &Path,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<Replayed, String> {
    let _ = std::fs::remove_dir_all(cache_dir);
    let cache = VerdictCache::open(cache_dir).map_err(|e| format!("replay cache: {e}"))?;
    let defaults = defaults();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Replayed {
        service: Vec::new(),
        mismatches: 0,
    };
    for (op, r) in responses.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        tr.begin_op(op as u64);
        let hits = tr.counts.cache_hits;
        let t0 = Instant::now();
        let got = ops::serve_replay(&r.sent.line, &defaults, &cache, tr)?;
        out.service.push((
            t0.elapsed().as_secs_f64() * 1e3,
            tr.counts.cache_hits > hits,
        ));
        if r.ok && Answer::Check(got).trace_key() != Answer::Check(r.answer).trace_key() {
            out.mismatches += 1;
            if tr.is_enabled() {
                eprintln!(
                    "drfbench: replayed answer differs on request {op}: {got:?} vs {:?}",
                    r.answer
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(cache_dir);
    // Commit the file system's journal before the next replay or run is
    // timed, so it does not pay for writing back these removals.
    if let Some(parent) = cache_dir.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_touches_registers_only() {
        let src = "r0 := x; requestReady := 1; r12 := r0; print r12; // thread 0";
        assert_eq!(
            rename_registers(src, 5),
            "r5 := x; requestReady := 1; r17 := r5; print r17; // thread 0"
        );
        assert_eq!(rename_registers(src, 0), src);
    }

    #[test]
    fn renamed_programs_share_a_cache_key() {
        use transafety::lang::parse_program;
        use transafety::serve::{normalise, CacheKey};
        let src = "r1 := x; r2 := r1; print r2; || x := r0;";
        let key = |s: &str| CacheKey::new(&normalise(&parse_program(s).unwrap().program), "fp");
        assert_eq!(key(src), key(&rename_registers(src, 9)));
    }
}
