//! Metric names, quantiles and the result line.

use std::collections::BTreeMap;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Every end-to-end metric and its unit, as `BENCHMARK.json` lists them.
/// Reported only by untraced runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("goodput_mbps", "MB/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ratio", "x"),
    ("server_cpu_ms_per_mb", "ms/MB"),
    ("server_rss_mb", "MB"),
];

/// Every per-layer metric and its unit, as `BENCHMARK.json` lists them.
/// Reported only by traced runs (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 33] = [
    ("gen.late_p99_ms", "ms"),
    ("wire.encode_ns_per_rec", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.frames_per_rec", "frame/rec"),
    ("wire.overhead_bytes_per_frame", "B/frame"),
    ("server.backpressure_ms", "ms"),
    ("pipelined.push_ns_per_rec", "ns"),
    ("pipelined.block_ms", "ms"),
    ("pipelined.emit_delay_ms_p50", "ms"),
    ("pipelined.emit_delay_ms_p99", "ms"),
    ("pipelined.finish_ms", "ms"),
    ("engine.compress_us_per_batch", "us"),
    ("engine.payload_ratio", "x"),
    ("engine.controls_per_batch", "count"),
    ("auto.batches_gd", "count"),
    ("auto.batches_deflate", "count"),
    ("auto.batches_hybrid", "count"),
    ("auto.switches", "count"),
    ("gd.compress_us_per_batch", "us"),
    ("gd.hit_ratio", "ratio"),
    ("gd.bases_learned", "count"),
    ("gd.evictions", "count"),
    ("deflate.compress_us_per_batch", "us"),
    ("persist.commit_us_p50", "us"),
    ("persist.commit_us_p99", "us"),
    ("persist.bytes_per_commit", "B"),
    ("flow.open_us", "us"),
    ("flow.push_ns_per_rec", "ns"),
    ("flow.emit_delay_ms_p50", "ms"),
    ("flow.events_per_rec", "count/rec"),
    ("decode.ns_per_payload", "ns"),
    ("decode.verify_failures", "count"),
    ("trace.overhead_pct", "%"),
];

/// The `q` quantile of `values` by the nearest-rank rule; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `names` with its unit. On a correct run a metric that was not measured
/// is an error; a failed run reports whatever it measured before failing.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    metrics: &Metrics,
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in names {
        let value = match metrics.get(name) {
            Some(&value) => value,
            None if correct => return Err(format!("metric {name} was not measured")),
            None => continue,
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
