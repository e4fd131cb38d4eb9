//! Exposition: Prometheus text format and the plain-text rank×phase
//! table the `monitor` binary renders. Both are pure functions of a
//! [`ClusterSnapshot`], so golden-file tests pin the exact bytes.

use crate::rolling::{bucket_upper_bound, HistogramWindow};
use crate::scrape::ClusterSnapshot;
use std::fmt::Write;

/// Escapes a Prometheus label value: backslash, double-quote and
/// newline, per the text exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Sanitizes a metric-name fragment: anything outside `[a-zA-Z0-9_]`
/// becomes `_` (so `serve:e2e_ns` → `serve_e2e_ns`).
fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn hist_family(out: &mut String, name: &str, help: &str, w: &HistogramWindow) {
    family(out, name, help, "histogram");
    let mut cum = 0u64;
    let last = w.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
    for (i, &c) in w.buckets[..=last].iter().enumerate() {
        cum += c;
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", bucket_upper_bound(i));
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", w.count);
    let _ = writeln!(out, "{name}_sum {}", w.sum);
    let _ = writeln!(out, "{name}_count {}", w.count);
}

/// Renders one sample in the Prometheus text exposition format.
///
/// The output is deterministic for a given snapshot: metric families
/// appear in a fixed order, and series within a family are sorted by
/// their label values. Optional derived gauges (budget ratio, straggler
/// λ) are emitted only when defined.
pub fn prometheus_text(snap: &ClusterSnapshot) -> String {
    let mut out = String::new();
    let d = &snap.derived;

    family(&mut out, "symtensor_alerts_total", "SLO burn-rate alerts raised.", "counter");
    let _ = writeln!(out, "symtensor_alerts_total {}", snap.alerts.len());

    family(
        &mut out,
        "symtensor_batch_occupancy_pct",
        "Current serve batch fill, percent of capacity.",
        "gauge",
    );
    let _ = writeln!(out, "symtensor_batch_occupancy_pct {}", d.batch_occupancy_pct);

    if let Some(ratio) = d.budget_ratio {
        family(
            &mut out,
            "symtensor_budget_ratio",
            "Sent words vs the scheduled 2*words_per_vector budget (1.0 = on theory).",
            "gauge",
        );
        let _ = writeln!(out, "symtensor_budget_ratio {ratio}");
    }

    family(
        &mut out,
        "symtensor_degraded_total",
        "Requests completed on the degraded fallback.",
        "counter",
    );
    let _ = writeln!(out, "symtensor_degraded_total {}", d.degraded);

    // Per-rank, per-phase traffic: series sorted by (rank, phase, dir).
    type Pick = fn(&crate::PhaseSnapshot) -> u64;
    let families: [(&str, &str, Pick, Pick); 2] = [
        (
            "symtensor_phase_msgs_total",
            "Messages by rank, phase and direction.",
            |p| p.msgs_sent,
            |p| p.msgs_recv,
        ),
        (
            "symtensor_phase_words_total",
            "Words by rank, phase and direction.",
            |p| p.words_sent,
            |p| p.words_recv,
        ),
    ];
    for (fam, help, pick_sent, pick_recv) in families {
        family(&mut out, fam, help, "counter");
        for (rank, cell) in snap.ranks.iter().enumerate() {
            let mut phases: Vec<&crate::PhaseSnapshot> = cell.phases.iter().collect();
            phases.sort_by_key(|p| p.label);
            for p in phases {
                let label = escape_label(p.label);
                let _ = writeln!(
                    out,
                    "{fam}{{rank=\"{rank}\",phase=\"{label}\",dir=\"recv\"}} {}",
                    pick_recv(p)
                );
                let _ = writeln!(
                    out,
                    "{fam}{{rank=\"{rank}\",phase=\"{label}\",dir=\"sent\"}} {}",
                    pick_sent(p)
                );
            }
        }
    }

    family(&mut out, "symtensor_queue_depth", "Requests admitted but not completed.", "gauge");
    let _ = writeln!(out, "symtensor_queue_depth {}", d.queue_depth);

    family(&mut out, "symtensor_rank_gauge", "Per-rank named gauges.", "gauge");
    for (rank, cell) in snap.ranks.iter().enumerate() {
        let mut gauges: Vec<_> = cell.gauges.iter().collect();
        gauges.sort_by_key(|g| g.name);
        for g in gauges {
            let name = escape_label(g.name);
            let _ = writeln!(
                out,
                "symtensor_rank_gauge{{rank=\"{rank}\",name=\"{name}\"}} {}",
                g.value
            );
        }
    }

    family(&mut out, "symtensor_retries_total", "Chaos-serve retry attempts.", "counter");
    let _ = writeln!(out, "symtensor_retries_total {}", d.retries);

    family(&mut out, "symtensor_sample_time_ns", "Plane-clock sample time.", "gauge");
    let _ = writeln!(out, "symtensor_sample_time_ns {}", snap.t_ns);

    family(&mut out, "symtensor_serve_gauge", "Serving-driver named gauges.", "gauge");
    let mut gauges: Vec<_> = snap.serve.gauges.iter().collect();
    gauges.sort_by_key(|g| g.name);
    for g in gauges {
        let name = escape_label(g.name);
        let _ = writeln!(out, "symtensor_serve_gauge{{name=\"{name}\"}} {}", g.value);
    }

    // Serve histograms (full window), one Prometheus histogram each.
    let mut hists: Vec<_> = snap.serve.hists.iter().collect();
    hists.sort_by_key(|h| h.name);
    for h in hists {
        let name = format!("symtensor_{}", sanitize(h.name));
        hist_family(&mut out, &name, "Rolling-window latency histogram (full window).", &h.long);
    }

    if let Some(lambda) = d.straggler_lambda {
        family(
            &mut out,
            "symtensor_straggler_lambda",
            "Live max/mean per-rank sent-word imbalance.",
            "gauge",
        );
        let _ = writeln!(out, "symtensor_straggler_lambda {lambda}");
    }

    family(&mut out, "symtensor_words_sent_total", "Words sent, all ranks and phases.", "counter");
    let _ = writeln!(out, "symtensor_words_sent_total {}", d.total_words_sent);

    out
}

/// Renders the top-style rank×phase view of one sample: a header with
/// the serve/derived gauges, then one row per (rank, phase) with
/// traffic counters. Plain text, fixed-width columns, no ANSI — the
/// `monitor` binary adds screen clearing around it.
pub fn render_table(snap: &ClusterSnapshot) -> String {
    let mut out = String::new();
    let d = &snap.derived;
    let _ = writeln!(
        out,
        "symtensor monitor  t={:.3}s  queue={} occ={}% retries={} degraded={} alerts={}",
        snap.t_ns as f64 / 1e9,
        d.queue_depth,
        d.batch_occupancy_pct,
        d.retries,
        d.degraded,
        snap.alerts.len(),
    );
    let fmt_opt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.3}"));
    let _ = writeln!(
        out,
        "words_sent={}  budget_ratio={}  lambda={}",
        d.total_words_sent,
        fmt_opt(d.budget_ratio),
        fmt_opt(d.straggler_lambda),
    );
    if let Some(h) = snap.serve.hist(crate::keys::E2E_NS) {
        let q =
            |w: &HistogramWindow, p: f64| w.quantile(p).map_or("-".to_string(), |v| format!("{v}"));
        let _ = writeln!(
            out,
            "e2e_ns: count={} p50={} p99={} max={}  (short: count={} p99={})",
            h.long.count,
            q(&h.long, 0.5),
            q(&h.long, 0.99),
            h.long.max.map_or("-".to_string(), |v| v.to_string()),
            h.short.count,
            q(&h.short, 0.99),
        );
    }
    let _ = writeln!(
        out,
        "{:<6} {:<18} {:>12} {:>12} {:>10} {:>10}",
        "rank", "phase", "words_sent", "words_recv", "msgs_sent", "msgs_recv"
    );
    for (rank, cell) in snap.ranks.iter().enumerate() {
        for p in &cell.phases {
            if p.words_sent == 0 && p.words_recv == 0 && p.msgs_sent == 0 && p.msgs_recv == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{rank:<6} {:<18} {:>12} {:>12} {:>10} {:>10}",
                p.label, p.words_sent, p.words_recv, p.msgs_sent, p.msgs_recv
            );
        }
    }
    for alert in &snap.alerts {
        let _ = writeln!(
            out,
            "ALERT #{} {} t={:.3}s short_burn={:.2} long_burn={:.2} budget={}ns",
            alert.id,
            alert.slo,
            alert.t_ns as f64 / 1e9,
            alert.short_burn,
            alert.long_burn,
            alert.budget_ns,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;
    use crate::plane::{PlaneConfig, TelemetryPlane};
    use crate::scrape::{sample_plane, ScrapeConfig};

    fn sample() -> ClusterSnapshot {
        let plane = TelemetryPlane::with_config(PlaneConfig::new(2).with_slice_ns(1 << 40));
        let gather = plane.phase_slot("gather-x");
        plane.rank_cell(0).on_send(gather, 12);
        plane.rank_cell(1).on_recv(gather, 12);
        let e2e = plane.hist_slot(keys::E2E_NS);
        plane.serve_cell().observe(e2e, 0, 900);
        let mut snap = sample_plane(&plane, &ScrapeConfig::default());
        snap.t_ns = 42; // pin the only wall-clock-dependent field
        snap
    }

    #[test]
    fn prometheus_output_is_deterministic_and_escaped() {
        let a = prometheus_text(&sample());
        let b = prometheus_text(&sample());
        assert_eq!(a, b, "same logical sample renders identical bytes");
        assert!(a.contains("# TYPE symtensor_phase_words_total counter"));
        assert!(a.contains(
            "symtensor_phase_words_total{rank=\"0\",phase=\"gather-x\",dir=\"sent\"} 12"
        ));
        assert!(a.contains("symtensor_serve_e2e_ns_count 1"));
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(sanitize("serve:e2e-ns"), "serve_e2e_ns");
    }

    #[test]
    fn table_lists_active_phases_only() {
        let table = render_table(&sample());
        assert!(table.contains("gather-x"));
        assert!(!table.contains(crate::UNPHASED), "all-zero rows are suppressed");
        assert!(table.contains("e2e_ns: count=1"));
    }
}
