//! The serve loop: admission control, the worker pool, fault-isolated
//! request processing and graceful drain.
//!
//! One [`Server`] owns one serve session. Requests arrive as JSON
//! lines (from stdin via [`Server::run`], or from any number of Unix
//! socket clients via [`Server::run_unix_listener`]), pass through a
//! **bounded admission queue**, and are processed by a fixed pool of
//! worker threads, each running the ordinary [`Analysis`] pipeline —
//! with the budgets and metrics of the in-process engine — plus the
//! service-level robustness machinery:
//!
//! * **backpressure, not collapse** — when the queue is full the
//!   *oldest* queued request is shed with an explicit `overloaded`
//!   response (never a silent drop): under overload the server prefers
//!   serving recent requests over stale ones whose clients have
//!   probably timed out already;
//! * **fault isolation** — each request runs under `catch_unwind`; a
//!   panicking request gets **one** retry of the same analysis, and if
//!   that panics too it degrades to an `error` response while every
//!   sibling request proceeds untouched;
//! * **bounded degradation** — per-request budgets trip into
//!   `verdict:"unknown"` responses with the truncation reason; no
//!   degraded path can emit `drf_proven` (the same three-valued
//!   discipline the in-process engine enforces);
//! * **graceful drain** — cancelling the [`drain
//!   token`](Server::drain_token) (wired to SIGINT/SIGTERM by the CLI)
//!   stops admission, cancels in-flight analyses cooperatively (they
//!   flush as `unknown`), answers still-queued requests with
//!   `cancelled`, and lets the session end cleanly. Plain EOF instead
//!   drains by *finishing* everything queued.

use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use transafety_checker::{Analysis, AnalysisReport, Completeness, Verdict};
use transafety_interleaving::{available_jobs, BudgetBound, CancelToken, TruncationReason};
use transafety_lang::parse_program;

use crate::cache::{CacheEntry, CacheKey, CacheLookup, VerdictCache};
use crate::faults::FaultPlan;
use crate::proto::{json_escape, parse_request, Request};
use crate::stats::ServeStats;

/// How long admission and socket-accept loops sleep between polls of
/// the drain token when no work is arriving.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Configuration for one serve session.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent request executors (each may itself run a parallel
    /// exploration per [`ServeConfig::defaults`]`.jobs`). Clamped to at
    /// least 1.
    pub workers: usize,
    /// Admission queue bound: with this many requests already queued, a
    /// new arrival sheds the oldest queued request. Clamped to ≥ 1.
    pub queue_depth: usize,
    /// Per-request defaults (model, budget, jobs, POR…); individual
    /// requests override field by field.
    pub defaults: Analysis,
    /// Verdict cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Deterministic fault injection (empty = production behaviour).
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: available_jobs(),
            queue_depth: 256,
            defaults: Analysis::new(),
            cache_dir: None,
            faults: FaultPlan::default(),
        }
    }
}

/// What a finished session reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// The session's service-level counters and latency samples.
    pub stats: ServeStats,
    /// Wall time of the whole session.
    pub elapsed: Duration,
}

/// A response sink shared by all requests of one client connection.
type Sink = Arc<Mutex<dyn Write + Send>>;

/// One admitted request waiting for (or undergoing) processing.
struct Job {
    /// 1-based admission sequence number (what fault-plan directives
    /// address; shed requests consume a number too).
    seq: u64,
    /// Correlation id echoed in the response.
    id: String,
    req: Request,
    sink: Sink,
    admitted: Instant,
}

/// One serve session. Create with [`Server::new`], then call exactly
/// one of the `run*` entry points; the [`ServeSummary`] carries the
/// final stats.
pub struct Server {
    config: ServeConfig,
    cache: Option<VerdictCache>,
    stats: Mutex<ServeStats>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// `true` while new requests may still be admitted.
    accepting: AtomicBool,
    /// Admission sequence counter.
    seq: AtomicU64,
    drain: CancelToken,
}

/// Locks a mutex, surviving poisoning: the serve loop must keep
/// answering requests even after a worker panicked somewhere
/// unexpected (the counters a panicking thread may have half-updated
/// are diagnostics, not verdicts).
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Server {
    /// Builds a server, opening (and creating if needed) the verdict
    /// cache directory when one is configured.
    pub fn new(config: ServeConfig) -> std::io::Result<Self> {
        let cache = match &config.cache_dir {
            Some(dir) => Some(VerdictCache::open(dir.clone())?),
            None => None,
        };
        Ok(Server {
            config,
            cache,
            stats: Mutex::new(ServeStats::default()),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            accepting: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            drain: CancelToken::new(),
        })
    }

    /// The session's drain token. Cancelling it (from a signal handler,
    /// a supervisor thread, a test) starts the graceful drain: stop
    /// admitting, cancel in-flight analyses, answer queued requests
    /// with `cancelled`, finish the session.
    #[must_use]
    pub fn drain_token(&self) -> CancelToken {
        self.drain.clone()
    }

    /// A live snapshot of the session's counters.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        lock(&self.stats).clone()
    }

    /// Runs a batch session: requests are read line-by-line from
    /// `reader`, responses are written to `writer` (shared by
    /// reference so callers can keep inspecting it — pass
    /// `Arc::new(Mutex::new(std::io::stdout()))` for the CLI, an
    /// `Arc<Mutex<Vec<u8>>>` in tests). Returns when the input reaches
    /// EOF and all admitted requests are answered, or when the drain
    /// token fires.
    ///
    /// The reader runs on a detached thread (stdin cannot be read with
    /// a timeout); after a drain it may stay blocked on a final
    /// `read_line` until the process exits, which is harmless.
    pub fn run<R, W>(&self, reader: R, writer: &Arc<Mutex<W>>) -> ServeSummary
    where
        R: BufRead + Send + 'static,
        W: Write + Send + 'static,
    {
        let start = Instant::now();
        let sink: Sink = Arc::clone(writer) as Sink;
        let (tx, rx) = mpsc::sync_channel::<String>(64);
        std::thread::spawn(move || {
            // Hand-rolled line loop rather than `lines()`: a signal
            // delivered mid-`read` surfaces as `Interrupted`, which must
            // be retried (keeping any partial line in the buffer), not
            // treated as EOF — otherwise a SIGINT drain looks like a
            // plain end-of-input and skips cancelling queued requests.
            let mut reader = reader;
            let mut line = String::new();
            loop {
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        let msg = line.trim_end_matches(['\n', '\r']).to_owned();
                        line.clear();
                        if tx.send(msg).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        });
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers.max(1) {
                scope.spawn(|| self.worker_loop());
            }
            loop {
                if self.drain.is_cancelled() {
                    break;
                }
                match rx.recv_timeout(POLL_INTERVAL) {
                    Ok(line) => self.admit(&line, &sink),
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            self.close_admission();
        });
        ServeSummary {
            stats: self.stats(),
            elapsed: start.elapsed(),
        }
    }

    /// Runs a socket session: accepts any number of clients on
    /// `listener`, each speaking the same JSON-lines protocol on its
    /// connection; responses go back on the connection that asked.
    /// All clients share one admission queue, worker pool, cache and
    /// stats — the multi-tenant shape of the ROADMAP's "heavy traffic"
    /// goal. Returns when the drain token fires.
    pub fn run_unix_listener(
        &self,
        listener: std::os::unix::net::UnixListener,
    ) -> std::io::Result<ServeSummary> {
        let start = Instant::now();
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| -> std::io::Result<()> {
            for _ in 0..self.config.workers.max(1) {
                scope.spawn(|| self.worker_loop());
            }
            loop {
                if self.drain.is_cancelled() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        stream.set_read_timeout(Some(POLL_INTERVAL))?;
                        let sink: Sink = Arc::new(Mutex::new(stream.try_clone()?));
                        scope.spawn(move || self.connection_loop(stream, &sink));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(e) => {
                        self.close_admission();
                        return Err(e);
                    }
                }
            }
            self.close_admission();
            Ok(())
        })?;
        Ok(ServeSummary {
            stats: self.stats(),
            elapsed: start.elapsed(),
        })
    }

    /// Reads one client connection until EOF or drain. The read
    /// timeout makes the loop re-check the drain token periodically;
    /// `read_line` keeps partial lines in its buffer across timeouts,
    /// so slow writers are reassembled correctly.
    fn connection_loop(&self, stream: std::os::unix::net::UnixStream, sink: &Sink) {
        let mut reader = std::io::BufReader::new(stream);
        let mut line = String::new();
        loop {
            if self.drain.is_cancelled() || !self.accepting.load(Ordering::Acquire) {
                return;
            }
            match reader.read_line(&mut line) {
                Ok(0) => return,
                Ok(_) => {
                    self.admit(line.trim_end_matches(['\n', '\r']), sink);
                    line.clear();
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            }
        }
    }

    /// Parses and admits one request line, shedding the oldest queued
    /// request if the queue is at its bound. Blank lines are ignored.
    fn admit(&self, line: &str, sink: &Sink) {
        if line.trim().is_empty() {
            return;
        }
        lock(&self.stats).requests += 1;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(e) => {
                lock(&self.stats).parse_errors += 1;
                let id = e.id.unwrap_or_else(|| seq.to_string());
                self.write_line(
                    sink,
                    &format!(
                        "{{\"id\":\"{}\",\"status\":\"error\",\"error\":\"{}\"}}",
                        json_escape(&id),
                        json_escape(&e.message)
                    ),
                );
                return;
            }
        };
        let id = req.id.clone().unwrap_or_else(|| seq.to_string());
        let job = Job {
            seq,
            id,
            req,
            sink: Arc::clone(sink),
            admitted: Instant::now(),
        };
        let shed = {
            let mut q = lock(&self.queue);
            let shed = if q.len() >= self.config.queue_depth.max(1) {
                q.pop_front()
            } else {
                None
            };
            q.push_back(job);
            self.available.notify_one();
            shed
        };
        if let Some(old) = shed {
            self.respond_overloaded(&old);
        }
    }

    /// Ends admission. On a drain (token cancelled) the still-queued
    /// requests are answered with `cancelled`; on plain EOF they stay
    /// queued for the workers to finish. Either way the workers are
    /// woken so idle ones can exit.
    fn close_admission(&self) {
        self.accepting.store(false, Ordering::Release);
        if self.drain.is_cancelled() {
            let drained: Vec<Job> = lock(&self.queue).drain(..).collect();
            for job in drained {
                self.respond_cancelled(&job);
            }
        }
        self.available.notify_all();
    }

    /// One worker: pop, process, repeat; exit when admission is closed
    /// and the queue is empty.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = lock(&self.queue);
                loop {
                    if let Some(job) = q.pop_front() {
                        break Some(job);
                    }
                    if !self.accepting.load(Ordering::Acquire) {
                        break None;
                    }
                    let (guard, _timeout) = self
                        .available
                        .wait_timeout(q, POLL_INTERVAL)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    q = guard;
                }
            };
            match job {
                // Re-check the drain token on every pop: `close_admission`
                // races the signal bridge, so a job can still be queued
                // when the token fires. Any job popped after the drain
                // started gets an explicit `cancelled` response instead
                // of burning worker time. (A plain-EOF close never
                // cancels the token, so end-of-input still finishes the
                // whole queue.)
                Some(job) if self.drain.is_cancelled() => {
                    self.respond_cancelled(&job);
                }
                Some(job) => self.process(&job),
                None => return,
            }
        }
    }

    /// The per-request Analysis configuration: server defaults with the
    /// request's overrides applied field by field.
    fn request_analysis(&self, req: &Request) -> Analysis {
        let mut a = self.config.defaults.clone();
        if let Some(m) = req.model {
            a = a.model(m);
        }
        if let Some(ms) = req.timeout_ms {
            a = a.timeout(Duration::from_millis(ms));
        }
        if let Some(n) = req.max_states {
            a = a.max_states(usize::try_from(n).unwrap_or(usize::MAX));
        }
        if let Some(n) = req.max_interleavings {
            a = a.max_interleavings(usize::try_from(n).unwrap_or(usize::MAX));
        }
        if let Some(n) = req.max_actions {
            a = a.max_actions(usize::try_from(n).unwrap_or(usize::MAX));
        }
        if let Some(j) = req.jobs {
            a = a.jobs(usize::try_from(j).unwrap_or(1));
        }
        if let Some(p) = req.por {
            a = a.por(p);
        }
        a
    }

    /// The semantic-options fingerprint that, with the normalised
    /// program, addresses the verdict cache. Everything that can change
    /// a complete verdict is in here; things that provably cannot
    /// (worker count, metrics) are not.
    fn fingerprint(analysis: &Analysis) -> String {
        let domain: Vec<String> = analysis
            .domain
            .values()
            .iter()
            .map(ToString::to_string)
            .collect();
        format!(
            "model={};domain={};max_actions={};max_tau={};por={}",
            analysis.model.as_str(),
            domain.join(","),
            analysis.explore.max_actions,
            analysis.explore.max_tau,
            analysis.explore.por,
        )
    }

    /// Processes one admitted request end to end: fault hooks, cache
    /// probe, governed analysis with panic quarantine and one retry of
    /// the same analysis, cache publication, response.
    fn process(&self, job: &Job) {
        let analysis = self.request_analysis(&job.req);
        if let Err(e) = analysis.budget.validate() {
            self.respond_error(job, &format!("budget: {e}"));
            return;
        }
        let program = match parse_program(&job.req.program) {
            Ok(p) => p.program,
            Err(e) => {
                self.respond_error(job, &format!("program: {e}"));
                return;
            }
        };
        if let Some(ms) = self.config.faults.slow_ms_on(job.seq) {
            lock(&self.stats).faults_injected += 1;
            std::thread::sleep(Duration::from_millis(ms));
        }
        let fingerprint = Self::fingerprint(&analysis);
        let normalised = crate::cache::normalise(&program);
        let canonical = normalised.to_string();
        let key = CacheKey::new(&normalised, &fingerprint);
        if let Some(cache) = &self.cache {
            match cache.load(key, &canonical, &fingerprint) {
                CacheLookup::Hit(entry) => {
                    lock(&self.stats).cache_hits += 1;
                    self.respond_cached(job, &analysis, &entry);
                    return;
                }
                CacheLookup::Quarantined => {
                    let mut s = lock(&self.stats);
                    s.cache_quarantined += 1;
                    s.cache_misses += 1;
                }
                CacheLookup::Miss => lock(&self.stats).cache_misses += 1,
            }
        }
        let mut retried = false;
        let report = loop {
            let attempt = u32::from(retried);
            let inject_panic = self.config.faults.panic_on(job.seq, attempt);
            if inject_panic {
                lock(&self.stats).faults_injected += 1;
            }
            let drain = self.drain.clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                assert!(!inject_panic, "injected worker panic (fault plan)");
                analysis.run_with_cancel(&program, drain)
            }));
            match outcome {
                Ok(report) => break Some(report),
                Err(_) => {
                    lock(&self.stats).worker_panics += 1;
                    if retried {
                        break None;
                    }
                    lock(&self.stats).retries += 1;
                    retried = true;
                }
            }
        };
        let Some(report) = report else {
            self.respond_error(
                job,
                "worker panicked on both the first run and the sequential \
                 retry; request quarantined without a verdict",
            );
            return;
        };
        if report.completeness.is_complete() {
            if let Some(cache) = &self.cache {
                let entry = CacheEntry {
                    program: canonical,
                    fingerprint,
                    verdict: verdict_str(report.verdict).to_string(),
                    behaviours: report.behaviours.value.len() as u64,
                    behaviours_complete: report.behaviours.complete,
                    // Serve never runs the census; 0 marks the count
                    // as absent (a program always has at least 1 state).
                    reachable_states: 0,
                };
                if let Ok(path) = cache.store(key, &entry) {
                    lock(&self.stats).cache_writes += 1;
                    if self.config.faults.corrupt_on(job.seq) {
                        lock(&self.stats).faults_injected += 1;
                        corrupt_file(&path);
                    }
                }
            }
        }
        self.respond_report(job, &report, retried);
    }

    /// Answers `ok` with the fields `id`, `status`, `cmd`, `model`,
    /// `verdict`, `racy`, `behaviours`, `behaviours_complete`,
    /// `completeness`, `cached`, `retried` and `elapsed_micros`. There is no state count: the service never
    /// runs the reachable-state census.
    fn respond_report(&self, job: &Job, report: &AnalysisReport, retried: bool) {
        // The three-valued discipline, re-checked at the service
        // boundary: a proof may only ever leave the process on a
        // complete run.
        debug_assert!(
            report.verdict != Verdict::DrfProven || report.completeness.is_complete(),
            "truncated run must not claim a proof"
        );
        let completeness = match report.completeness {
            Completeness::Complete => "complete".to_string(),
            Completeness::Truncated { reason } => format!("truncated:{}", reason_str(reason)),
        };
        {
            let mut s = lock(&self.stats);
            if !report.completeness.is_complete() {
                s.budget_trips += 1;
            }
            s.responses_ok += 1;
            s.record_latency(job.admitted.elapsed());
        }
        let line = format!(
            "{{\"id\":\"{}\",\"status\":\"ok\",\"cmd\":\"{}\",\"model\":\"{}\",\
             \"verdict\":\"{}\",\"racy\":{},\"behaviours\":{},\"behaviours_complete\":{},\
             \"completeness\":\"{}\",\"cached\":false,\
             \"retried\":{},\"elapsed_micros\":{}}}",
            json_escape(&job.id),
            job.req.cmd.as_str(),
            report.model.as_str(),
            verdict_str(report.verdict),
            report.race.is_some(),
            report.behaviours.value.len(),
            report.behaviours.complete,
            completeness,
            retried,
            micros(job.admitted.elapsed()),
        );
        self.write_line(&job.sink, &line);
    }

    fn respond_cached(&self, job: &Job, analysis: &Analysis, entry: &CacheEntry) {
        {
            let mut s = lock(&self.stats);
            s.responses_ok += 1;
            s.record_latency(job.admitted.elapsed());
        }
        let line = format!(
            "{{\"id\":\"{}\",\"status\":\"ok\",\"cmd\":\"{}\",\"model\":\"{}\",\
             \"verdict\":\"{}\",\"racy\":{},\"behaviours\":{},\"behaviours_complete\":{},\
             \"completeness\":\"complete\",\"cached\":true,\
             \"retried\":false,\"elapsed_micros\":{}}}",
            json_escape(&job.id),
            job.req.cmd.as_str(),
            analysis.model.as_str(),
            json_escape(&entry.verdict),
            entry.verdict == "racy",
            entry.behaviours,
            entry.behaviours_complete,
            micros(job.admitted.elapsed()),
        );
        self.write_line(&job.sink, &line);
    }

    fn respond_error(&self, job: &Job, message: &str) {
        {
            let mut s = lock(&self.stats);
            s.responses_error += 1;
            s.record_latency(job.admitted.elapsed());
        }
        self.write_line(
            &job.sink,
            &format!(
                "{{\"id\":\"{}\",\"status\":\"error\",\"error\":\"{}\"}}",
                json_escape(&job.id),
                json_escape(message)
            ),
        );
    }

    fn respond_overloaded(&self, job: &Job) {
        lock(&self.stats).responses_overloaded += 1;
        self.write_line(
            &job.sink,
            &format!(
                "{{\"id\":\"{}\",\"status\":\"overloaded\",\"error\":\"shed by admission \
                 control: queue full (depth {}), oldest request dropped first\"}}",
                json_escape(&job.id),
                self.config.queue_depth.max(1)
            ),
        );
    }

    fn respond_cancelled(&self, job: &Job) {
        lock(&self.stats).responses_cancelled += 1;
        self.write_line(
            &job.sink,
            &format!(
                "{{\"id\":\"{}\",\"status\":\"cancelled\",\"error\":\"server draining; \
                 request was never scheduled\"}}",
                json_escape(&job.id)
            ),
        );
    }

    /// Writes one response line and flushes it (clients block on
    /// complete lines; a buffered half-response is indistinguishable
    /// from a hang). Write errors are swallowed: a client that hung up
    /// forfeits its responses, the server must keep serving others.
    fn write_line(&self, sink: &Sink, line: &str) {
        let mut w = lock(sink);
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// The wire spelling of a verdict.
fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Racy => "racy",
        Verdict::DrfProven => "drf_proven",
        Verdict::Unknown => "unknown",
    }
}

/// The wire spelling of a truncation reason.
fn reason_str(reason: TruncationReason) -> &'static str {
    match reason {
        TruncationReason::BudgetExceeded(BudgetBound::WallClock) => "wall_clock",
        TruncationReason::BudgetExceeded(BudgetBound::States) => "states",
        TruncationReason::BudgetExceeded(BudgetBound::Interleavings) => "interleavings",
        TruncationReason::BudgetExceeded(BudgetBound::Actions) => "actions",
        TruncationReason::Cancelled => "cancelled",
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Deterministically damages a published cache entry in place (the
/// `corrupt@N` fault directive): flips bits near the end of the file —
/// inside the checksummed payload — so the next probe must take the
/// quarantine path.
fn corrupt_file(path: &std::path::Path) {
    if let Ok(mut bytes) = std::fs::read(path) {
        let n = bytes.len();
        if n >= 4 {
            bytes[n - 3] ^= 0xff;
            let _ = std::fs::write(path, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run_batch(config: ServeConfig, input: &str) -> (Vec<String>, ServeSummary) {
        let server = Server::new(config).unwrap();
        let out = Arc::new(Mutex::new(Vec::<u8>::new()));
        let summary = server.run(Cursor::new(input.to_string()), &out);
        let bytes = lock(&out).clone();
        let lines = String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        (lines, summary)
    }

    #[test]
    fn batch_of_three_requests_round_trips() {
        let input = concat!(
            "{\"id\":\"a\",\"program\":\"x := 1; || r0 := x; print r0;\"}\n",
            "\n",
            "{\"id\":\"b\",\"cmd\":\"races\",\"program\":\"volatile v; v := 1; || r0 := v; print r0;\"}\n",
            "{\"id\":\"c\",\"program\":\"syntax error\"}\n",
        );
        let (lines, summary) = run_batch(ServeConfig::default(), input);
        assert_eq!(lines.len(), 3, "{lines:?}");
        let a = lines.iter().find(|l| l.contains("\"id\":\"a\"")).unwrap();
        assert!(
            a.contains("\"verdict\":\"racy\"") && a.contains("\"racy\":true"),
            "{a}"
        );
        let b = lines.iter().find(|l| l.contains("\"id\":\"b\"")).unwrap();
        assert!(
            b.contains("\"verdict\":\"drf_proven\"") && b.contains("\"cmd\":\"races\""),
            "{b}"
        );
        let c = lines.iter().find(|l| l.contains("\"id\":\"c\"")).unwrap();
        assert!(c.contains("\"status\":\"error\""), "{c}");
        assert_eq!(summary.stats.requests, 3);
        assert_eq!(summary.stats.responses_ok, 2);
        assert_eq!(summary.stats.responses_error, 1);
        assert_eq!(summary.stats.latency_count(), 3);
    }

    #[test]
    fn per_request_budget_trips_to_unknown() {
        let input = "{\"id\":\"t\",\"program\":\"x := 1; || r0 := x; r1 := x; print r0;\",\"max_states\":1}\n";
        let (lines, summary) = run_batch(ServeConfig::default(), input);
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains("\"completeness\":\"truncated:states\""),
            "{}",
            lines[0]
        );
        assert!(!lines[0].contains("drf_proven"), "{}", lines[0]);
        assert_eq!(summary.stats.budget_trips, 1);
    }

    #[test]
    fn drain_token_cancels_queued_work() {
        let server = Server::new(ServeConfig::default()).unwrap();
        server.drain_token().cancel();
        let out = Arc::new(Mutex::new(Vec::<u8>::new()));
        let summary = server.run(
            Cursor::new("{\"id\":\"x\",\"program\":\"x := 1;\"}\n".to_string()),
            &out,
        );
        // Pre-cancelled drain: the admission loop exits before reading
        // anything; no hangs, no partially-served session.
        assert_eq!(summary.stats.responses_ok, 0);
    }
}
