//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start, end, parent and the id of the op it
//! belongs to. Spans stay in memory and are written out as JSON lines
//! when the run ends. A layer's self time is its span's duration minus
//! the time its child spans cover; the `<layer>.ms` per-layer metrics
//! are self times summed over the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use transafety::interleaving::ExploreStats;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// The in-memory span recorder, plus the layer counters harvested from
/// the library's own stats at the same boundaries.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    pub counts: LayerCounts,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: LayerCounts::default(),
        }
    }

    /// A tracer whose spans only run their closure: the untraced
    /// baseline of a replay.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts attributing spans to op `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Each span with its self time in milliseconds.
    fn self_times(&self) -> impl Iterator<Item = (&Span, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans.iter().zip(child_ns).map(|(s, children)| {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            (s, own as f64 / 1e6)
        })
    }

    /// Summed self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, ms) in self.self_times() {
            *out.entry(s.name).or_default() += ms;
        }
        out
    }

    /// Per op, the summed self time in milliseconds of its spans not
    /// named in `skip`.
    pub fn op_ms_without(&self, skip: &[&str]) -> BTreeMap<u64, f64> {
        let mut out: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, ms) in self.self_times() {
            if !skip.contains(&s.name) {
                *out.entry(s.op).or_default() += ms;
            }
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

/// Counters summed over the traced run. Exploration counts are the
/// difference between `ExploreStats` snapshots taken before and after
/// each phase call.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    pub behaviours_states: u64,
    pub races_states: u64,
    pub census_states: u64,
    pub por_ample: u64,
    pub por_full: u64,
    pub await_collapsed: u64,
    pub flush_ample_hits: u64,
    pub intern_probes: u64,
    pub intern_collisions: u64,
    pub intern_keys: u64,
    pub intern_slots: u64,
    pub pool_tasks: u64,
    pub pool_steals: u64,
    pub pool_parks: u64,
    pub pool_drain_ns: u64,
    pub trips_actions: u64,
    pub trips_states: u64,
    pub rewrites: u64,
    pub shrink_steps: u64,
    pub shrink_attempts: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

/// Which exploration phase a stats difference belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    Behaviours,
    Races,
    Census,
}

impl LayerCounts {
    /// Adds the work done between two snapshots of one collector.
    pub fn add_phase(&mut self, phase: PhaseKind, before: &ExploreStats, after: &ExploreStats) {
        let d = |f: fn(&ExploreStats) -> u64| f(after) - f(before);
        let states = d(|s| s.states_visited);
        match phase {
            PhaseKind::Behaviours => self.behaviours_states += states,
            PhaseKind::Races => self.races_states += states,
            PhaseKind::Census => self.census_states += states,
        }
        // The census never reduces, so only the reduced phases feed the
        // ample ratio.
        if phase != PhaseKind::Census {
            self.por_ample += d(|s| s.por_ample_hits);
            self.por_full += d(|s| s.por_full_expansions);
        }
        self.await_collapsed += d(|s| s.await_collapsed);
        self.flush_ample_hits += d(|s| s.dpor_flush_ample_hits);
        self.intern_probes += d(|s| s.intern_probes);
        self.intern_collisions += d(|s| s.intern_collisions);
        self.intern_keys += d(|s| s.intern_keys);
        self.intern_slots += d(|s| s.intern_slots);
        self.pool_tasks += d(|s| s.pool_tasks);
        self.pool_steals += d(|s| s.pool_steals);
        self.pool_parks += d(|s| s.pool_parks);
        self.pool_drain_ns += d(|s| s.pool_drain_nanos);
        self.trips_actions += d(|s| s.trip_actions);
        self.trips_states += d(|s| s.trip_states);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Extra per-layer numbers measured outside the span tree.
#[derive(Debug, Default, Clone)]
pub struct Extras {
    pub queue_wait_p50_ms: f64,
    pub queue_wait_p99_ms: f64,
    pub admit_lag_p99_ms: f64,
    pub slo_attainment: f64,
    pub generator_lag_p99_ms: f64,
    pub trace_overhead: f64,
    pub trace_mismatches: u64,
}

/// Every per-layer metric with its unit, in the order `BENCHMARK.json`
/// lists them. A layer the workload does not exercise reads 0.
pub fn per_layer_metrics(
    tracer: &Tracer,
    extras: &Extras,
) -> Vec<(&'static str, f64, &'static str)> {
    let ms = tracer.self_ms();
    let t = |name: &str| ms.get(name).copied().unwrap_or(0.0);
    let c = &tracer.counts;
    vec![
        ("lang.parse.ms", t("lang.parse"), "ms"),
        ("lang.lower.ms", t("lang.lower"), "ms"),
        ("lang.model.behaviours.ms", t("lang.model.behaviours"), "ms"),
        (
            "lang.model.behaviours.states",
            c.behaviours_states as f64,
            "count",
        ),
        ("lang.model.races.ms", t("lang.model.races"), "ms"),
        ("lang.model.races.states", c.races_states as f64, "count"),
        ("lang.model.census.ms", t("lang.model.census"), "ms"),
        ("lang.model.census.states", c.census_states as f64, "count"),
        (
            "lang.model.por_ample_ratio",
            ratio(c.por_ample, c.por_ample + c.por_full),
            "ratio",
        ),
        (
            "lang.model.await_collapsed",
            c.await_collapsed as f64,
            "count",
        ),
        ("lang.extract.ms", t("lang.extract"), "ms"),
        ("tso.flush_ample_hits", c.flush_ample_hits as f64, "count"),
        (
            "interleaving.intern.probes",
            c.intern_probes as f64,
            "count",
        ),
        (
            "interleaving.intern.probe_chain",
            ratio(c.intern_collisions, c.intern_probes),
            "ratio",
        ),
        (
            "interleaving.intern.load_factor",
            ratio(c.intern_keys, c.intern_slots),
            "ratio",
        ),
        ("interleaving.par.tasks", c.pool_tasks as f64, "count"),
        ("interleaving.par.steals", c.pool_steals as f64, "count"),
        ("interleaving.par.parks", c.pool_parks as f64, "count"),
        (
            "interleaving.par.drain_ms",
            c.pool_drain_ns as f64 / 1e6,
            "ms",
        ),
        (
            "interleaving.budget.trips.actions",
            c.trips_actions as f64,
            "count",
        ),
        (
            "interleaving.budget.trips.states",
            c.trips_states as f64,
            "count",
        ),
        ("serve.proto.ms", t("serve.proto"), "ms"),
        ("serve.cache.normalise.ms", t("serve.cache.normalise"), "ms"),
        ("serve.cache.load.ms", t("serve.cache.load"), "ms"),
        ("serve.cache.store.ms", t("serve.cache.store"), "ms"),
        (
            "serve.cache.hit_ratio",
            ratio(c.cache_hits, c.cache_lookups),
            "ratio",
        ),
        ("serve.compute.ms", t("serve.compute"), "ms"),
        ("serve.queue_wait.p50_ms", extras.queue_wait_p50_ms, "ms"),
        ("serve.queue_wait.p99_ms", extras.queue_wait_p99_ms, "ms"),
        ("serve.admit_lag.p99_ms", extras.admit_lag_p99_ms, "ms"),
        ("serve.slo_attainment", extras.slo_attainment, "ratio"),
        ("syntactic.rewrites.ms", t("syntactic.rewrites"), "ms"),
        ("syntactic.rewrites.count", c.rewrites as f64, "count"),
        ("fuzz.pipeline.ms", t("fuzz.pipeline"), "ms"),
        ("fuzz.oracle.ms", t("fuzz.oracle"), "ms"),
        ("fuzz.shrink.ms", t("fuzz.shrink"), "ms"),
        (
            "fuzz.shrink.useful_ratio",
            ratio(c.shrink_steps, c.shrink_attempts),
            "ratio",
        ),
        ("checker.classify.ms", t("checker.classify"), "ms"),
        (
            "checker.correspondence.ms",
            t("checker.correspondence"),
            "ms",
        ),
        ("checker.refinement.ms", t("checker.refinement"), "ms"),
        ("checker.guarantee.ms", t("checker.guarantee"), "ms"),
        (
            "bench.generator_lag.p99_ms",
            extras.generator_lag_p99_ms,
            "ms",
        ),
        ("bench.trace_overhead", extras.trace_overhead, "ratio"),
        (
            "bench.trace_mismatches",
            extras.trace_mismatches as f64,
            "count",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin_op(7);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let ms = t.self_ms();
        assert!(ms["inner"] >= 5.0);
        assert!(ms["outer"] >= 2.0 && ms["outer"] < 5.0, "{ms:?}");
        assert_eq!(t.op_ms_without(&["inner"])[&7], ms["outer"]);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"inner\"") && lines.contains("\"parent\":0,\"op\":7"));
    }
}
