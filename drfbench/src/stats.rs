//! Small measurement helpers: quantiles and process counters.

/// The `q` quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |j: usize| -> f64 {
        // Python: m = n + 1; j = i*m // 4; delta = i*m - j*4;
        // result = (data[j-1]*(4-delta) + data[j]*delta) / 4
        let m = n + 1;
        let jj = (j * m) / 4;
        let delta = (j * m) as f64 - (jj * 4) as f64;
        let lo = v[jj.saturating_sub(1).min(n - 1)];
        let hi = v[jj.min(n - 1)];
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Latency quantiles taken per window of consecutive samples (by
/// default [`Windowed::WINDOW`]), reported as the median over windows.
/// The host stalls now and then for tens of milliseconds: a stall moves
/// the quantiles of the windows it falls in, not their median. Only the
/// open window's samples are kept, so memory does not grow with the
/// number of samples.
#[derive(Debug)]
pub struct Windowed {
    window: usize,
    open: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    samples: u64,
}

impl Default for Windowed {
    fn default() -> Self {
        Windowed::new(Self::WINDOW)
    }
}

impl Windowed {
    pub const WINDOW: usize = 250;

    /// Windows of `window` samples; `usize::MAX` makes the whole run one
    /// window.
    pub fn new(window: usize) -> Self {
        Windowed {
            window,
            open: Vec::new(),
            p50: Vec::new(),
            p99: Vec::new(),
            samples: 0,
        }
    }

    pub fn push(&mut self, value: f64) {
        self.open.push(value);
        self.samples += 1;
        if self.open.len() == self.window {
            self.close();
        }
    }

    fn close(&mut self) {
        self.p50.push(quantile(&self.open, 0.5));
        self.p99.push(quantile(&self.open, 0.99));
        self.open.clear();
    }

    /// Closes the open window when it is the only one, so a run shorter
    /// than a window still reports; otherwise a partial last window is
    /// dropped.
    fn full_windows(&mut self) {
        if self.p50.is_empty() && !self.open.is_empty() {
            self.close();
        }
    }

    pub fn p50(&mut self) -> f64 {
        self.full_windows();
        median(&self.p50)
    }

    pub fn p99(&mut self) -> f64 {
        self.full_windows();
        median(&self.p99)
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    pub fn windows(&self) -> usize {
        self.p50.len()
    }

    /// Samples per window, for the report.
    pub fn window(&self) -> usize {
        self.window
    }
}

/// User plus system CPU time of the whole process so far, in seconds,
/// from `/proc/self/stat` (clock ticks of 1/100 s).
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name is parenthesised and may contain spaces; fields
    // after it are space-separated, utime and stime being the 12th and
    // 13th.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn windowed_quantiles_ignore_a_burst() {
        let mut w = Windowed::default();
        for i in 0..10_000 {
            w.push(if i < 1_000 { 50.0 } else { 1.0 });
        }
        assert_eq!((w.p50(), w.p99()), (1.0, 1.0));
        assert_eq!((w.samples(), w.windows()), (10_000, 40));
        // Fewer samples than a window: the plain quantile.
        let mut short = Windowed::default();
        (0..200).for_each(|_| short.push(50.0));
        assert_eq!(short.p50(), 50.0);
        assert_eq!(short.windows(), 1);
        // One window for the whole run: the plain quantiles.
        let mut whole = Windowed::new(usize::MAX);
        (0..1_000).for_each(|i| whole.push(f64::from(i)));
        assert_eq!((whole.p50(), whole.windows()), (499.5, 1));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
    }

    #[test]
    fn process_counters_are_positive() {
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
