//! A metrics registry: named counters, gauges, and histograms that
//! serialize to one JSON document (`genomicsbench ... --metrics out.json`).

use crate::hist::LogHistogram;
use crate::stats::TaskStats;
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// Named metrics, JSON-serializable. Keys are emitted in sorted order so
/// the output is stable across runs.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one sample into the named histogram.
    pub fn record(&mut self, name: &str, sample: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(sample);
    }

    /// Read access to a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Ingests one instrumented run's [`TaskStats`] under `prefix`:
    /// a `<prefix>.tasks` counter plus latency-percentile and
    /// utilization gauges (`<prefix>.p50_ns`, …, `<prefix>.utilization`).
    /// When the run carried per-task heap attribution (`mem-profile`
    /// builds), also emits `<prefix>.task_peak_max_bytes` and
    /// `<prefix>.task_peak_mean_bytes` gauges.
    pub fn record_task_stats(&mut self, prefix: &str, stats: &TaskStats) {
        self.counter_add(&format!("{prefix}.tasks"), stats.count);
        self.set_gauge(&format!("{prefix}.mean_ns"), stats.mean_ns as f64);
        self.set_gauge(&format!("{prefix}.p50_ns"), stats.p50_ns as f64);
        self.set_gauge(&format!("{prefix}.p90_ns"), stats.p90_ns as f64);
        self.set_gauge(&format!("{prefix}.p99_ns"), stats.p99_ns as f64);
        self.set_gauge(&format!("{prefix}.max_ns"), stats.max_ns as f64);
        self.set_gauge(&format!("{prefix}.utilization"), stats.utilization);
        if let Some(mem) = &stats.memory {
            self.set_gauge(
                &format!("{prefix}.task_peak_max_bytes"),
                mem.task_peak_max_bytes as f64,
            );
            self.set_gauge(
                &format!("{prefix}.task_peak_mean_bytes"),
                mem.task_peak_mean_bytes as f64,
            );
        }
    }

    /// Serializes every metric:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: summary}}`.
    pub fn to_json(&self) -> Value {
        let mut counters = Map::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), Value::from(*v));
        }
        let mut gauges = Map::new();
        for (k, v) in &self.gauges {
            gauges.insert(k.clone(), Value::from(*v));
        }
        let mut hists = Map::new();
        for (k, h) in &self.histograms {
            let s = h.summary();
            let mut m = Map::new();
            m.insert("count".into(), Value::from(s.count));
            m.insert("mean".into(), Value::from(s.mean));
            m.insert("p50".into(), Value::from(s.p50));
            m.insert("p90".into(), Value::from(s.p90));
            m.insert("p99".into(), Value::from(s.p99));
            m.insert("max".into(), Value::from(s.max));
            hists.insert(k.clone(), Value::Object(m));
        }
        let mut root = Map::new();
        root.insert("counters".into(), Value::Object(counters));
        root.insert("gauges".into(), Value::Object(gauges));
        root.insert("histograms".into(), Value::Object(hists));
        Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips_through_json() {
        let mut r = MetricsRegistry::new();
        r.counter_add("tasks", 5);
        r.counter_add("tasks", 2);
        r.set_gauge("utilization", 0.75);
        for v in [10u64, 20, 30, 40] {
            r.record("latency_ns", v);
        }
        let j = r.to_json();
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get("tasks"))
                .and_then(Value::as_u64),
            Some(7)
        );
        assert_eq!(
            j.get("gauges")
                .and_then(|g| g.get("utilization"))
                .and_then(Value::as_f64),
            Some(0.75)
        );
        let h = j
            .get("histograms")
            .and_then(|h| h.get("latency_ns"))
            .expect("histogram");
        assert_eq!(h.get("count").and_then(Value::as_u64), Some(4));
        assert_eq!(h.get("max").and_then(Value::as_u64), Some(40));
    }

    #[test]
    fn untouched_counter_reads_zero() {
        let r = MetricsRegistry::new();
        assert_eq!(r.counter("nope"), 0);
        assert!(r.histogram("nope").is_none());
    }
}
