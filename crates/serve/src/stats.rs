//! Service-level observability: admission, cache, degradation and
//! latency counters for one serve session.
//!
//! The per-request exploration metrics stay with the PR 5 layer
//! ([`transafety_interleaving::ExploreMetrics`]); this module counts
//! the things only the *service* can see — shed requests, cache
//! behaviour, retries, injected faults, per-request latency — and
//! serialises them under the same stable schema id as the analysis
//! stats (`drfcheck-stats-v2`), as a dedicated `serve` section:
//!
//! ```json
//! {"schema":"drfcheck-stats-v2","section":"serve","serve":{...}}
//! ```
//!
//! Counters are accumulated under one mutex: requests are heavyweight
//! (a full exploration each), so per-request locking is noise.

use std::time::Duration;

/// Number of fixed histogram buckets: 64 exact buckets for values
/// below 64 µs, then 32 log-spaced sub-buckets per power-of-two octave
/// up to `u64::MAX`.
const LATENCY_BUCKETS: usize = 1920;

/// Sub-bucket resolution: each octave is split into `2^5 = 32`
/// sub-buckets, bounding the relative quantisation error at 1/32.
const SUB_BITS: u32 = 5;

/// A fixed-size log-scale latency histogram.
///
/// Replaces the earlier unbounded `Vec<u64>` of raw samples: a serve
/// session is long-lived, so per-request sample retention grew without
/// bound. The histogram keeps `count`, `total` and `max` exact and
/// answers nearest-rank quantiles to within one sub-bucket (≤ 1/32
/// relative error; exact for samples below 64 µs), in O(1) memory
/// regardless of how many samples are recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Bucket occupancy, HDR-style: index `v` for `v < 64`, then
    /// `shift * 32 + (v >> shift)` where `shift = msb(v) - 5`.
    counts: Box<[u64; LATENCY_BUCKETS]>,
    count: u64,
    total: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: Box::new([0; LATENCY_BUCKETS]),
            count: 0,
            total: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    fn bucket_index(value: u64) -> usize {
        let msb = 63 - (value | 1).leading_zeros();
        let shift = msb.saturating_sub(SUB_BITS);
        (shift as usize) * 32 + (value >> shift) as usize
    }

    /// The largest value that maps to `index` (the bucket's inclusive
    /// upper bound), used as the quantile representative.
    fn bucket_upper(index: usize) -> u64 {
        if index < 64 {
            return index as u64;
        }
        let shift = (index / 32 - 1) as u32;
        let pos = (index - shift as usize * 32) as u64;
        ((pos + 1) << shift) - 1
    }

    /// Records one sample.
    pub fn record(&mut self, micros: u64) {
        self.counts[Self::bucket_index(micros)] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(micros);
        self.max = self.max.max(micros);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating), in microseconds.
    #[must_use]
    pub fn total_micros(&self) -> u64 {
        self.total
    }

    /// Exact maximum sample, in microseconds.
    #[must_use]
    pub fn max_micros(&self) -> u64 {
        self.max
    }

    /// Folds another histogram into this one: bucket-wise addition with
    /// exact `count`/`total`/`max` (used to merge per-worker histograms
    /// into a run total).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (0.0 ≤ q ≤ 1.0) by nearest-rank over the
    /// buckets; `0` with no samples. Exact for samples below 64 µs,
    /// otherwise the upper bound of the hit sub-bucket, clamped to the
    /// true maximum.
    #[must_use]
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(index).min(self.max);
            }
        }
        self.max
    }
}

/// Counters and latency samples for one serve session. Obtained from
/// [`Server::run`](crate::Server::run) as part of the summary, or
/// snapshotted live.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Request lines received (including unparseable ones).
    pub requests: u64,
    /// Lines that failed to parse or validate (each got an `error`
    /// response).
    pub parse_errors: u64,
    /// `ok` responses (fresh or cached).
    pub responses_ok: u64,
    /// `error` responses for requests that were admitted but could not
    /// be analysed (double panic, rejected options).
    pub responses_error: u64,
    /// `overloaded` responses: requests shed by admission control.
    pub responses_overloaded: u64,
    /// `cancelled` responses: requests drained unprocessed at shutdown.
    pub responses_cancelled: u64,
    /// Verified cache hits.
    pub cache_hits: u64,
    /// Cache misses (absent entry, or a verified content mismatch).
    pub cache_misses: u64,
    /// Entries published to the cache.
    pub cache_writes: u64,
    /// Corrupt entries quarantined (each also counts a miss).
    pub cache_quarantined: u64,
    /// Sequential retries after a quarantined worker panic.
    pub retries: u64,
    /// Worker panics caught at the request boundary (injected or real).
    pub worker_panics: u64,
    /// Faults injected by the active [`FaultPlan`](crate::FaultPlan).
    pub faults_injected: u64,
    /// Requests whose budget tripped (responses carried
    /// `verdict:"unknown"` with a truncation reason).
    pub budget_trips: u64,
    /// Per-request wall latency distribution in microseconds
    /// (admission to response write), one sample per `ok`/`error`
    /// response, held in a fixed-size log-scale histogram.
    pub latencies: LatencyHistogram,
}

impl ServeStats {
    /// Records one completed request's latency.
    pub fn record_latency(&mut self, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.latencies.record(micros);
    }

    /// Number of latency samples.
    #[must_use]
    pub fn latency_count(&self) -> u64 {
        self.latencies.count()
    }

    /// Sum of all latency samples, in microseconds.
    #[must_use]
    pub fn latency_total_micros(&self) -> u64 {
        self.latencies.total_micros()
    }

    /// The `q`-quantile latency (0.0 ≤ q ≤ 1.0) by nearest-rank over
    /// the histogram buckets; `0` with no samples.
    #[must_use]
    pub fn latency_quantile_micros(&self, q: f64) -> u64 {
        self.latencies.quantile_micros(q)
    }

    /// The maximum latency sample, in microseconds.
    #[must_use]
    pub fn latency_max_micros(&self) -> u64 {
        self.latencies.max_micros()
    }

    /// Serialises the section to one line of schema-stable JSON. Key
    /// order is fixed; all values are non-negative integers, so the
    /// golden-schema tests can parse it the same way they parse the
    /// exploration stats line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"schema\":\"drfcheck-stats-v2\",\"section\":\"serve\",\"serve\":{");
        let mut first = true;
        for (key, value) in [
            ("requests", self.requests),
            ("parse_errors", self.parse_errors),
            ("responses_ok", self.responses_ok),
            ("responses_error", self.responses_error),
            ("responses_overloaded", self.responses_overloaded),
            ("responses_cancelled", self.responses_cancelled),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_writes", self.cache_writes),
            ("cache_quarantined", self.cache_quarantined),
            ("retries", self.retries),
            ("worker_panics", self.worker_panics),
            ("faults_injected", self.faults_injected),
            ("budget_trips", self.budget_trips),
            ("latency_count", self.latency_count()),
            ("latency_total_micros", self.latency_total_micros()),
            ("latency_p50_micros", self.latency_quantile_micros(0.50)),
            ("latency_p99_micros", self.latency_quantile_micros(0.99)),
            ("latency_max_micros", self.latency_max_micros()),
        ] {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\"{key}\":{value}"));
        }
        s.push_str("}}");
        s
    }

    /// Renders a human-readable multi-line summary (what `--stats`
    /// prints on stderr after a session).
    #[must_use]
    pub fn to_human(&self) -> String {
        format!(
            "--- serve stats ---\n\
             requests: {} received, {} parse errors\n\
             responses: {} ok, {} error, {} overloaded (shed), {} cancelled\n\
             cache: {} hits, {} misses, {} writes, {} quarantined\n\
             degradation: {} worker panics, {} retries, {} injected faults, {} budget trips\n\
             latency (µs): p50 {}, p99 {}, max {} over {} requests",
            self.requests,
            self.parse_errors,
            self.responses_ok,
            self.responses_error,
            self.responses_overloaded,
            self.responses_cancelled,
            self.cache_hits,
            self.cache_misses,
            self.cache_writes,
            self.cache_quarantined,
            self.worker_panics,
            self.retries,
            self.faults_injected,
            self.budget_trips,
            self.latency_quantile_micros(0.50),
            self.latency_quantile_micros(0.99),
            self.latency_max_micros(),
            self.latency_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut s = ServeStats::default();
        for v in [5u64, 1, 3, 2, 4] {
            s.latencies.record(v);
        }
        assert_eq!(s.latency_quantile_micros(0.5), 3);
        assert_eq!(s.latency_quantile_micros(0.99), 5);
        assert_eq!(s.latency_quantile_micros(1.0), 5);
        assert_eq!(s.latency_max_micros(), 5);
        assert_eq!(s.latency_total_micros(), 15);
        assert_eq!(ServeStats::default().latency_quantile_micros(0.99), 0);
    }

    #[test]
    fn histogram_is_exact_below_64_and_bounded_above() {
        let mut h = LatencyHistogram::default();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.quantile_micros(0.5), 31);
        assert_eq!(h.quantile_micros(1.0), 63);
        // A large sample lands in a log bucket: the reported quantile
        // overestimates by at most one sub-bucket (1/32 relative).
        let mut big = LatencyHistogram::default();
        big.record(1_000_000);
        let q = big.quantile_micros(0.5);
        assert!(q >= 1_000_000, "quantile {q} under-reports");
        assert!(
            q <= 1_000_000 + 1_000_000 / 32 + 1,
            "quantile {q} off by more than a sub-bucket"
        );
        assert_eq!(big.max_micros(), 1_000_000);
        assert_eq!(
            big.quantile_micros(1.0),
            1_000_000,
            "p100 clamps to the exact max"
        );
    }

    #[test]
    fn a_million_samples_stay_constant_size() {
        let mut h = LatencyHistogram::default();
        let fixed =
            std::mem::size_of::<LatencyHistogram>() + std::mem::size_of_val(h.counts.as_ref());
        let mut total = 0u64;
        for i in 0..1_000_000u64 {
            // Spread samples across seven decades, including u64::MAX.
            let v = if i % 100_000 == 0 {
                u64::MAX
            } else {
                (i * 37) % 10_000_000
            };
            h.record(v);
            total = total.saturating_add(v);
        }
        // The histogram owns no heap storage beyond its fixed bucket
        // array, so its footprint after a million samples is exactly
        // its footprint before any: size_of the struct plus the
        // boxed bucket array.
        let after =
            std::mem::size_of::<LatencyHistogram>() + std::mem::size_of_val(h.counts.as_ref());
        assert_eq!(after, fixed, "bucket storage must not grow with samples");
        assert_eq!(h.count(), 1_000_000);
        assert_eq!(h.total_micros(), total);
        assert_eq!(h.max_micros(), u64::MAX);
        let p50 = h.quantile_micros(0.5);
        assert!(p50 > 0 && p50 < 10_000_000 + 10_000_000 / 32);
    }

    #[test]
    fn json_has_the_stable_preamble_and_no_negatives() {
        let mut s = ServeStats {
            requests: 3,
            ..ServeStats::default()
        };
        s.record_latency(Duration::from_micros(250));
        let json = s.to_json();
        assert!(
            json.starts_with("{\"schema\":\"drfcheck-stats-v2\",\"section\":\"serve\",\"serve\":{")
        );
        assert!(json.contains("\"requests\":3"));
        assert!(json.contains("\"latency_count\":1"));
        assert!(!json.contains(":-"), "no negative counters: {json}");
    }
}
