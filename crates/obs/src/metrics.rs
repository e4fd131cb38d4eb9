//! A small thread-safe metrics registry: counters, gauges and histograms.
//!
//! Ranks are OS threads, so the registry is `Sync` and can be shared across
//! a [`symtensor_mpsim::Universe::run`] closure. Histograms use
//! power-of-two buckets, which is the right resolution for message sizes
//! (the quantities the α-β-γ model counts) and for nanosecond latencies.

use crate::histogram::{histogram_json, Histogram};
use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use symtensor_mpsim::cost::CommEventKind;
use symtensor_mpsim::{CommEvent, CostReport};

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe registry of named metrics.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the named monotonic counter (creating it at 0).
    pub fn counter_add(&self, name: &str, v: u64) {
        let mut inner = self.inner.lock().unwrap();
        *inner.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Sets the named gauge to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.insert(name.to_string(), v);
    }

    /// Records one observation in the named histogram.
    pub fn histogram_observe(&self, name: &str, v: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.histograms.entry(name.to_string()).or_default().observe(v);
    }

    /// Reads back a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().unwrap().counters.get(name).copied().unwrap_or(0)
    }

    /// Reads back a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.lock().unwrap().gauges.get(name).copied()
    }

    /// Snapshot of a histogram.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.lock().unwrap().histograms.get(name).cloned()
    }

    /// Ingests a full run: per-rank cost counters from `report` and, when
    /// traces are available, the per-message word-size histogram
    /// (`comm.message_words`) and per-round word volumes
    /// (`comm.round_words`) the issue's observability spec calls for.
    pub fn record_run(&self, report: &CostReport, traces: &[Vec<CommEvent>]) {
        self.counter_add("comm.total_words_sent", report.total_words_sent());
        self.counter_add("comm.total_words_recv", report.total_words_recv());
        self.gauge_set("comm.bandwidth_cost", report.bandwidth_cost() as f64);
        self.gauge_set("comm.max_msgs_sent", report.max_msgs_sent() as f64);
        self.gauge_set("comm.max_rounds", report.max_rounds() as f64);
        for (rank, cost) in report.per_rank.iter().enumerate() {
            self.gauge_set(&format!("comm.rank.{rank}.words_sent"), cost.words_sent as f64);
            self.gauge_set(&format!("comm.rank.{rank}.words_recv"), cost.words_recv as f64);
        }
        let mut round_words: BTreeMap<u64, u64> = BTreeMap::new();
        for events in traces {
            for event in events {
                if let CommEventKind::Send { words, .. } = event.kind {
                    self.histogram_observe("comm.message_words", words);
                    if let Some(round) = event.round {
                        *round_words.entry(round).or_insert(0) += words;
                    }
                }
            }
        }
        for (_, words) in round_words {
            self.histogram_observe("comm.round_words", words);
        }
    }

    /// Serializes the registry as a flat JSON document:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> Value {
        let inner = self.inner.lock().unwrap();
        let counters = Value::Object(
            inner.counters.iter().map(|(k, &v)| (k.clone(), Value::from(v))).collect(),
        );
        let gauges =
            Value::Object(inner.gauges.iter().map(|(k, &v)| (k.clone(), Value::from(v))).collect());
        let histograms = Value::Object(
            inner.histograms.iter().map(|(k, h)| (k.clone(), histogram_json(h))).collect(),
        );
        Value::object()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symtensor_mpsim::Universe;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 5, 8, 9, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 9);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 2); // 0, 1
        assert_eq!(h.buckets[1], 1); // 2
        assert_eq!(h.buckets[2], 2); // 3, 4
        assert_eq!(h.buckets[3], 2); // 5, 8
        assert_eq!(h.buckets[4], 1); // 9
        assert_eq!(h.buckets[10], 1); // 1024
    }

    #[test]
    fn registry_is_threadsafe_across_ranks() {
        let metrics = MetricsRegistry::new();
        Universe::new(4).run(|comm| {
            metrics.counter_add("ticks", 1 + comm.rank() as u64);
        });
        assert_eq!(metrics.counter("ticks"), 1 + 2 + 3 + 4);
    }

    #[test]
    fn record_run_builds_message_histogram() {
        let metrics = MetricsRegistry::new();
        let (_, report, traces) = Universe::new(2).run_traced(|comm| {
            let other = 1 - comm.rank();
            comm.annotate_round(0);
            comm.exchange(other, 0, vec![0.0; 3]).unwrap();
            comm.annotate_round(1);
            comm.exchange(other, 1, vec![0.0; 7]).unwrap();
            comm.clear_round();
        });
        metrics.record_run(&report, &traces);
        let h = metrics.histogram("comm.message_words").unwrap();
        assert_eq!(h.count, 4); // 2 ranks × 2 sends
        assert_eq!(h.sum, 2 * (3 + 7));
        let rounds = metrics.histogram("comm.round_words").unwrap();
        assert_eq!(rounds.count, 2);
        assert_eq!(rounds.sum, 2 * (3 + 7));
        assert_eq!(metrics.counter("comm.total_words_sent"), report.total_words_sent());
    }

    #[test]
    fn json_export_contains_sections() {
        let metrics = MetricsRegistry::new();
        metrics.counter_add("c", 2);
        metrics.gauge_set("g", 1.5);
        metrics.histogram_observe("h", 10);
        let v = metrics.to_json();
        assert_eq!(v.get("counters").unwrap().get("c").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("gauges").unwrap().get("g").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            v.get("histograms").unwrap().get("h").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
    }
}
