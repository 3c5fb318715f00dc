//! The metric catalogue and the result line.

use crate::spans::Span;
use serde_json::Value;
use std::collections::BTreeMap;

/// A metric's name, unit and meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics: every untraced run of every workload reports each
/// of them (see `NOTES.md` for what each means on each workload).
pub const END_TO_END: [MetricDef; 5] = [
    def("setup_s", "s"),
    def("draws_per_s", "1/s"),
    def("op_p50_ms", "ms"),
    def("efficiency_pct", "%"),
    def("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports each of them, `0` for a
/// layer the workload does not exercise.
pub const PER_LAYER: [MetricDef; 36] = [
    def("cluster.fit_ms", "ms"),
    def("cluster.frames", "count"),
    def("cluster.clusters", "count"),
    def("cluster.draws_per_cluster", "draws"),
    def("features.extract_ms", "ms"),
    def("features.rows", "count"),
    def("gpusim.simulate_ms", "ms"),
    def("gpusim.sweep_cold_ms", "ms"),
    def("gpusim.sweep_warm_ms", "ms"),
    def("gpusim.freq_validation_ms", "ms"),
    def("gpusim.draws", "count"),
    def("gpusim.batch_hits", "count"),
    def("gpusim.batch_misses", "count"),
    def("gpusim.batch_hit_rate", "ratio"),
    def("core.predict_ms", "ms"),
    def("core.phase_ms", "ms"),
    def("core.subset_build_ms", "ms"),
    def("core.phases", "count"),
    def("core.pred_error_pct", "%"),
    def("core.fraction_pct", "%"),
    def("core.outlier_pct", "%"),
    def("core.freq_r_min", "r"),
    def("trace.gen_ms", "ms"),
    def("trace.encode_ms", "ms"),
    def("trace.decode_ms", "ms"),
    def("trace.chunk_bytes", "bytes"),
    def("serve.open_ms", "ms"),
    def("serve.close_ms", "ms"),
    def("serve.ingest_ms", "ms"),
    def("serve.wire_ms", "ms"),
    def("serve.chunk_p90_ms", "ms"),
    def("serve.pred_error_pct", "%"),
    def("serve.fraction_pct", "%"),
    def("sweep.cold_draws_per_s", "1/s"),
    def("sweep.warm_draws_per_s", "1/s"),
    def("bench.trace_overhead_pct", "%"),
];

/// Operations attempted and failed by output checks.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed or that returned an error.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; `check` is `Err(reason)` when it failed.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = check {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(reason);
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output-check tally.
    pub ops: Ops,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Run facts printed on the line before the result (thread count,
    /// connection count, sample counts, spreads…).
    pub info: Vec<(String, Value)>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a run fact.
    pub fn note(&mut self, key: &str, value: Value) {
        self.info.push((key.to_string(), value));
    }
}

/// Builds the result object over `catalogue`. Catalogue metrics the run
/// did not measure read `0` when `missing_is_zero`, and are an error
/// otherwise.
pub fn result_json(
    ops: &Ops,
    values: &BTreeMap<&'static str, f64>,
    catalogue: &[MetricDef],
    missing_is_zero: bool,
) -> Result<Value, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for m in catalogue {
        let value = match values.get(m.name) {
            Some(&v) if v.is_finite() => v,
            Some(&v) => return Err(format!("metric {} is not finite ({v})", m.name)),
            None if missing_is_zero => 0.0,
            None => return Err(format!("metric {} was not measured", m.name)),
        };
        metrics.push((
            m.name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]),
        ));
    }
    Ok(Value::Object(vec![
        ("correct".into(), Value::Bool(ops.failed == 0)),
        ("attempted".into(), Value::UInt(ops.attempted)),
        ("failed".into(), Value::UInt(ops.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Names in `values` that neither catalogue lists.
#[cfg(test)]
pub fn uncatalogued(values: &BTreeMap<&'static str, f64>) -> Vec<&'static str> {
    values
        .keys()
        .copied()
        .filter(|name| !END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == *name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        for name in &all {
            assert!(valid_metric_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let spec = serde_json::parse_value(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |c: &[MetricDef]| -> Vec<(String, String)> {
            c.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn result_round_trips_through_json() {
        let mut ops = Ops::default();
        ops.record(Ok(()));
        ops.record(Err("mismatch".into()));
        let values: BTreeMap<&str, f64> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 0.1 + i as f64 / 3.0))
            .collect();
        let json = result_json(&ops, &values, &END_TO_END, false).unwrap();
        let text = serde_json::to_string(&json).unwrap();
        let back = serde_json::parse_value(&text).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
        assert_eq!(back.get("correct"), Some(&Value::Bool(false)));
        let keys: Vec<&str> = back
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = back.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value"), Some(&Value::Float(0.1)));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn missing_metrics_are_errors_or_zero() {
        let ops = Ops::default();
        let values = BTreeMap::new();
        assert!(result_json(&ops, &values, &END_TO_END, false).is_err());
        let json = result_json(&ops, &values, &PER_LAYER, true).unwrap();
        let m = json.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(m.len(), PER_LAYER.len());
        let mut values = BTreeMap::new();
        values.insert("setup_s", f64::NAN);
        assert!(result_json(&ops, &values, &END_TO_END[..1], false).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
