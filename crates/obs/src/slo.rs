//! Request-level SLO readouts for the batched serving path: per-span
//! latency histograms (queue wait, batch formation, compute, exchange and
//! end-to-end) with p50/p90/p99 quantiles and **exemplars** — each bucket
//! remembers one concrete request that landed in it, so a p99 readout
//! links to a request id whose flight-recorder trace can be pulled up.

use crate::histogram::{histogram_json, Histogram};
use crate::json::Value;
use symtensor_telemetry::{bucket_index, bucket_upper_bound};

/// One concrete observation kept as the representative of a bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// The request id that produced the observation.
    pub request: u64,
    /// The observed value (nanoseconds).
    pub value: u64,
}

/// A [`Histogram`] that additionally keeps, per power-of-two bucket, the
/// worst (largest-valued) request that landed there. The quantile engine
/// is the shared one, so the exemplar for a quantile is always drawn from
/// exactly the bucket the quantile readout resolves to.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExemplarHistogram {
    /// The underlying latency histogram.
    pub hist: Histogram,
    /// `exemplars[i]` is the worst observation recorded in bucket `i`.
    exemplars: Vec<Option<Exemplar>>,
}

impl ExemplarHistogram {
    /// Records `value` for `request`, keeping it as the bucket's exemplar
    /// if it is the worst seen there so far.
    pub fn observe(&mut self, value: u64, request: u64) {
        self.hist.observe(value);
        let bucket = bucket_index(value);
        if self.exemplars.len() <= bucket {
            self.exemplars.resize(bucket + 1, None);
        }
        let slot = &mut self.exemplars[bucket];
        if slot.is_none_or(|e| value > e.value) {
            *slot = Some(Exemplar { request, value });
        }
    }

    /// The exemplar of the bucket holding the `q`-quantile, if any.
    pub fn quantile_exemplar(&self, q: f64) -> Option<Exemplar> {
        let bucket = self.hist.quantile_bucket(q)?;
        self.exemplars.get(bucket).copied().flatten()
    }

    /// The p99 bucket's exemplar — the concrete request to pull a trace
    /// for when the tail looks wrong.
    pub fn p99_exemplar(&self) -> Option<Exemplar> {
        self.quantile_exemplar(0.99)
    }

    /// JSON form: the histogram plus `{bucket_le, request, value}` exemplar
    /// links for every non-empty bucket.
    pub fn to_json(&self) -> Value {
        histogram_json(&self.hist).with(
            "exemplars",
            Value::Array(
                self.exemplars
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| e.as_ref().map(|e| (i, e)))
                    .map(|(i, e)| {
                        Value::object()
                            .with("bucket_le", bucket_upper_bound(i))
                            .with("request", e.request)
                            .with("value", e.value)
                    })
                    .collect(),
            ),
        )
    }
}

/// The latency decomposition of one served request, as measured by the
/// serving driver (straggler semantics: each span is the slowest rank's).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestLatency {
    /// Request id.
    pub id: u64,
    /// Arrival → the batch containing this request starting to form.
    pub queue_wait_ns: u64,
    /// Shard extraction / batch assembly.
    pub batch_form_ns: u64,
    /// This request's vector kernel time (slowest rank).
    pub compute_ns: u64,
    /// Gather + reduce exchange time of the batch (slowest rank each).
    pub exchange_ns: u64,
    /// Arrival → result extracted on every rank.
    pub e2e_ns: u64,
}

/// SLO report over a stream of served requests: one exemplar histogram per
/// span of the request lifecycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SloReport {
    /// Queue-wait span.
    pub queue_wait: ExemplarHistogram,
    /// Batch-formation span.
    pub batch_form: ExemplarHistogram,
    /// Per-request compute span.
    pub compute: ExemplarHistogram,
    /// Exchange (gather + reduce) span.
    pub exchange: ExemplarHistogram,
    /// End-to-end latency.
    pub e2e: ExemplarHistogram,
}

/// Renders a quantile cell: the value, or `-` when the histogram is empty
/// (an empty histogram has no quantiles; printing 0 would read as a real
/// 0 ns measurement).
pub fn quantile_cell(hist: &Histogram, q: f64) -> String {
    hist.try_quantile(q).map_or_else(|| "-".to_string(), |v| v.to_string())
}

impl SloReport {
    /// Folds one request's latency decomposition into the report.
    pub fn observe(&mut self, lat: &RequestLatency) {
        self.queue_wait.observe(lat.queue_wait_ns, lat.id);
        self.batch_form.observe(lat.batch_form_ns, lat.id);
        self.compute.observe(lat.compute_ns, lat.id);
        self.exchange.observe(lat.exchange_ns, lat.id);
        self.e2e.observe(lat.e2e_ns, lat.id);
    }

    /// Number of requests observed.
    pub fn count(&self) -> u64 {
        self.e2e.hist.count
    }

    fn rows(&self) -> [(&'static str, &ExemplarHistogram); 5] {
        [
            ("queue_wait", &self.queue_wait),
            ("batch_form", &self.batch_form),
            ("compute", &self.compute),
            ("exchange", &self.exchange),
            ("e2e", &self.e2e),
        ]
    }

    /// Plain-text SLO table (ns): p50/p90/p99/max per span, `-` for empty,
    /// with the p99 exemplar request named per row.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>10} {:>10}  p99 exemplar",
            "span (ns)", "p50", "p90", "p99", "max"
        );
        for (name, h) in self.rows() {
            let exemplar = h
                .p99_exemplar()
                .map_or_else(String::new, |e| format!("request {} ({} ns)", e.request, e.value));
            let max = if h.hist.count == 0 { "-".to_string() } else { h.hist.max.to_string() };
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>10} {:>10} {:>10}  {}",
                name,
                quantile_cell(&h.hist, 0.50),
                quantile_cell(&h.hist, 0.90),
                quantile_cell(&h.hist, 0.99),
                max,
                exemplar
            );
        }
        out
    }

    /// JSON form: `{requests, spans: {name: histogram+exemplars}}`.
    pub fn to_json(&self) -> Value {
        let mut spans = Value::object();
        for (name, h) in self.rows() {
            spans = spans.with(name, h.to_json());
        }
        Value::object().with("requests", self.count()).with("spans", spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exemplar_tracks_the_worst_request_per_bucket() {
        let mut h = ExemplarHistogram::default();
        h.observe(100, 1); // bucket le=128
        h.observe(120, 2); // same bucket, worse
        h.observe(90, 3); // same bucket, better — must not displace
        h.observe(5000, 9); // tail bucket
        let p99 = h.p99_exemplar().unwrap();
        assert_eq!(p99.request, 9);
        assert_eq!(p99.value, 5000);
        let p50 = h.quantile_exemplar(0.50).unwrap();
        assert_eq!(p50.request, 2, "bucket exemplar is the worst value in the bucket");
        assert_eq!(p50.value, 120);
    }

    #[test]
    fn quantile_exemplar_comes_from_the_quantile_bucket() {
        let mut h = ExemplarHistogram::default();
        for v in 1..=100u64 {
            h.observe(v, v * 10);
        }
        // p50 resolves to the bucket with upper bound 64 (values 33..=64);
        // its worst value is 64, recorded for request 640.
        assert_eq!(h.hist.p50(), 64);
        let e = h.quantile_exemplar(0.50).unwrap();
        assert_eq!(e.value, 64);
        assert_eq!(e.request, 640);
    }

    #[test]
    fn empty_report_renders_dashes() {
        let report = SloReport::default();
        assert_eq!(report.count(), 0);
        let text = report.render();
        assert!(text.contains('-'), "empty spans render '-', got:\n{text}");
        assert!(!text.lines().skip(1).any(|l| l.contains(" 0 ")), "no fake-zero quantiles");
        assert!(report.e2e.p99_exemplar().is_none());
    }

    #[test]
    fn report_aggregates_and_serializes() {
        let mut report = SloReport::default();
        for i in 0..50u64 {
            report.observe(&RequestLatency {
                id: i,
                queue_wait_ns: 10 + i,
                batch_form_ns: 5,
                compute_ns: 1000 + i * 17,
                exchange_ns: 300,
                e2e_ns: 2000 + i * 20,
            });
        }
        assert_eq!(report.count(), 50);
        let text = report.render();
        assert!(text.contains("e2e"));
        assert!(text.contains("p99 exemplar"));
        assert!(text.contains("request 49"), "worst e2e request named, got:\n{text}");
        let json = report.to_json();
        assert_eq!(json.get("requests").unwrap().as_u64(), Some(50));
        let e2e = json.get("spans").unwrap().get("e2e").unwrap();
        assert_eq!(e2e.get("count").unwrap().as_u64(), Some(50));
        assert!(!e2e.get("exemplars").unwrap().as_array().unwrap().is_empty());
    }
}
