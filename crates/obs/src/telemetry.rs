//! The `symtensor-telemetry-v1` artifact: a scraped [`TelemetrySeries`]
//! rendered through the in-tree JSON builder, so a live-metrics capture
//! can be archived next to the flight / post-mortem dumps and validated
//! by the same [`crate::schema::validate`] entry point.

use crate::json::Value;
use symtensor_telemetry::{
    CellSnapshot, ClusterSnapshot, HistogramWindow, SloAlert, TelemetrySeries,
};

fn opt_u64(v: Option<u64>) -> Value {
    v.map(Value::from).unwrap_or(Value::Null)
}

fn opt_f64(v: Option<f64>) -> Value {
    v.map(Value::from).unwrap_or(Value::Null)
}

fn window_json(w: &HistogramWindow) -> Value {
    // Only populated buckets are emitted (`le` is the bucket's upper
    // bound); the fixed 40-bucket layout would otherwise bloat every
    // sample with zeros.
    let buckets: Vec<Value> = w
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| {
            Value::object().with("le", symtensor_telemetry::bucket_upper_bound(i)).with("count", c)
        })
        .collect();
    Value::object()
        .with("count", w.count)
        .with("sum", w.sum)
        .with("min", opt_u64(w.min))
        .with("max", opt_u64(w.max))
        .with("p50", opt_u64(w.quantile(0.50)))
        .with("p99", opt_u64(w.quantile(0.99)))
        .with("buckets", buckets)
}

fn cell_json(cell: &CellSnapshot) -> Value {
    let phases: Vec<Value> = cell
        .phases
        .iter()
        .filter(|p| p.words_sent + p.words_recv + p.msgs_sent + p.msgs_recv > 0)
        .map(|p| {
            Value::object()
                .with("phase", p.label)
                .with("words_sent", p.words_sent)
                .with("words_recv", p.words_recv)
                .with("msgs_sent", p.msgs_sent)
                .with("msgs_recv", p.msgs_recv)
        })
        .collect();
    let mut gauges = Value::object();
    for g in &cell.gauges {
        gauges.set(g.name, g.value);
    }
    let mut hists = Value::object();
    for h in &cell.hists {
        hists.set(
            h.name,
            Value::object().with("long", window_json(&h.long)).with("short", window_json(&h.short)),
        );
    }
    Value::object().with("phases", phases).with("gauges", gauges).with("hists", hists)
}

fn alert_json(a: &SloAlert) -> Value {
    Value::object()
        .with("id", a.id)
        .with("t_ns", a.t_ns)
        .with("slo", a.slo)
        .with("budget_ns", a.budget_ns)
        .with("objective", a.objective)
        .with("short_burn", a.short_burn)
        .with("long_burn", a.long_burn)
        .with("short_p99_ns", opt_u64(a.short_p99_ns))
}

fn sample_json(s: &ClusterSnapshot) -> Value {
    let d = &s.derived;
    let derived = Value::object()
        .with("total_words_sent", d.total_words_sent)
        .with("straggler_lambda", opt_f64(d.straggler_lambda))
        .with("budget_ratio", opt_f64(d.budget_ratio))
        .with("queue_depth", d.queue_depth)
        .with("batch_occupancy_pct", d.batch_occupancy_pct)
        .with("retries", d.retries)
        .with("degraded", d.degraded);
    let ranks: Vec<Value> = s
        .ranks
        .iter()
        .enumerate()
        .map(|(r, cell)| {
            let mut v = cell_json(cell);
            v.set("rank", r);
            v
        })
        .collect();
    Value::object()
        .with("t_ns", s.t_ns)
        .with("derived", derived)
        .with("ranks", ranks)
        .with("serve", cell_json(&s.serve))
        .with("alerts", s.alerts.iter().map(alert_json).collect::<Vec<_>>())
}

/// Renders a scraped series as the `symtensor-telemetry-v1` artifact.
pub fn telemetry_json(series: &TelemetrySeries) -> Value {
    Value::object()
        .with("version", "symtensor-telemetry-v1")
        .with("interval_ns", series.interval_ns)
        .with("budget_words_per_vector", opt_u64(series.budget_words_per_vector))
        .with("samples", series.samples.iter().map(sample_json).collect::<Vec<_>>())
        .with("alerts", series.alerts.iter().map(alert_json).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use symtensor_telemetry::{keys, sample_plane, ScrapeConfig, TelemetryPlane};

    #[test]
    fn series_round_trips_through_the_shared_validator() {
        let plane = Arc::new(TelemetryPlane::new(2));
        let slot = plane.phase_slot("gather-x");
        plane.rank_cell(0).on_send(slot, 12);
        plane.rank_cell(1).on_recv(slot, 12);
        let e2e = plane.hist_slot(keys::E2E_NS);
        plane.serve_cell().observe(e2e, plane.now_ns(), 1500);
        let cfg = ScrapeConfig::default().with_budget_words_per_vector(6);
        let series = symtensor_telemetry::TelemetrySeries {
            interval_ns: 50_000_000,
            budget_words_per_vector: cfg.budget_words_per_vector,
            samples: vec![sample_plane(&plane, &cfg)],
            alerts: plane.alerts(),
        };
        let doc = telemetry_json(&series);
        assert_eq!(crate::schema::validate(&doc), Ok(crate::schema::ArtifactKind::Telemetry));
        // The artifact is parseable back through the in-tree parser.
        let text = doc.to_string_pretty();
        let parsed = crate::json::parse(&text).expect("emitted JSON parses");
        assert_eq!(crate::schema::validate(&parsed), Ok(crate::schema::ArtifactKind::Telemetry));
    }
}
