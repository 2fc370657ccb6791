//! The end-to-end metrics and the result line.

use std::fmt::Write as _;

/// One end-to-end metric: name, unit, direction and regression bound
/// (the share of the parent's median it may worsen by). `BENCHMARK.json`
/// lists the same table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

pub const END_TO_END: [MetricDef; 7] = [
    metric("throughput_ops", "ops/s", true, 0.25),
    metric("latency_p50_ms", "ms", false, 0.25),
    metric("latency_p99_ms", "ms", false, 0.25),
    metric("cpu_ms_per_op", "ms", false, 0.25),
    metric("decided_ratio", "ratio", true, 0.02),
    metric("setup_s", "s", false, 0.25),
    metric("peak_rss_mb", "MB", false, 0.25),
];

/// Prints the metric lines (`name value unit`) and, last, the result
/// object the harness reads.
pub fn emit(
    header: &str,
    notes: &[String],
    metrics: &[(&str, f64, &str)],
    correct: bool,
    attempted: u64,
    failed: u64,
) {
    println!("# drfbench {header}");
    for note in notes {
        println!("# {note}");
    }
    for (name, value, unit) in metrics {
        println!("{name} {value} {unit}");
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}
