//! One shared validator for every JSON artifact the workspace emits.
//!
//! The CLI binaries write five artifact families — metrics documents,
//! Chrome traces, perf-regression diffs, bench snapshots, and the flight /
//! post-mortem dumps added by the flight recorder. Each consumer used to
//! assume its own shape; this module centralizes the contracts so a CI
//! job (and the `schema` acceptance test) can walk *any* emitted file
//! through [`validate`] and learn what it is — or exactly which field is
//! malformed.

use crate::json::Value;

/// The artifact families the workspace emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A metrics document: either a bare registry
    /// (`{counters, gauges, histograms}`) or the CLI's per-label bundle
    /// (`{label: {metrics, comm_matrix, occupancy}}`).
    Metrics,
    /// A Chrome trace-event document (`{"traceEvents": [...]}`).
    ChromeTrace,
    /// A perf-regression diff (`{threshold, regressed, rows}`).
    RegressDiff,
    /// A bench snapshot (`{benchmark?, results: [{kernel, n, ns_per_iter}]}`).
    Bench,
    /// A flight-recorder window dump (`symtensor-flight-v1`).
    Flight,
    /// A post-mortem crash dump (`symtensor-postmortem-v1`).
    Postmortem,
    /// A scraped live-metrics series (`symtensor-telemetry-v1`).
    Telemetry,
    /// A concurrency-checker run (`symtensor-check-v1`): model-check
    /// outcomes, the race-demo verdict, the mutation sweep, lint findings.
    Check,
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ArtifactKind::Metrics => "metrics",
            ArtifactKind::ChromeTrace => "chrome-trace",
            ArtifactKind::RegressDiff => "regress-diff",
            ArtifactKind::Bench => "bench-snapshot",
            ArtifactKind::Flight => "flight",
            ArtifactKind::Postmortem => "postmortem",
            ArtifactKind::Telemetry => "telemetry",
            ArtifactKind::Check => "check",
        };
        write!(f, "{name}")
    }
}

fn require<'a>(doc: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    doc.get(key).ok_or_else(|| format!("{what}: missing `{key}`"))
}

fn require_array<'a>(doc: &'a Value, key: &str, what: &str) -> Result<&'a [Value], String> {
    require(doc, key, what)?.as_array().ok_or_else(|| format!("{what}: `{key}` is not an array"))
}

fn require_u64(doc: &Value, key: &str, what: &str) -> Result<u64, String> {
    require(doc, key, what)?.as_u64().ok_or_else(|| format!("{what}: `{key}` is not a number"))
}

fn require_str<'a>(doc: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    require(doc, key, what)?.as_str().ok_or_else(|| format!("{what}: `{key}` is not a string"))
}

/// A histogram object as emitted by `histogram_json`: exact stats plus
/// quantiles that are numbers — or `null` for an empty histogram, never a
/// fake 0.
fn check_histogram(h: &Value, what: &str) -> Result<(), String> {
    let count = require_u64(h, "count", what)?;
    for q in ["p50", "p90", "p99"] {
        let v = require(h, q, what)?;
        match v {
            Value::Null if count == 0 => {}
            Value::Number(_) if count > 0 => {}
            Value::Null => return Err(format!("{what}: `{q}` is null but count = {count}")),
            Value::Number(_) => return Err(format!("{what}: `{q}` is a number but count = 0")),
            _ => return Err(format!("{what}: `{q}` is neither number nor null")),
        }
    }
    for b in require_array(h, "buckets", what)? {
        require_u64(b, "le", what)?;
        require_u64(b, "count", what)?;
    }
    Ok(())
}

fn check_chrome(doc: &Value, what: &str) -> Result<(), String> {
    let events = require_array(doc, "traceEvents", what)?;
    for (i, e) in events.iter().enumerate() {
        let ctx = format!("{what}: traceEvents[{i}]");
        let ph = require_str(e, "ph", &ctx)?;
        require(e, "pid", &ctx)?;
        require(e, "tid", &ctx)?;
        if ph != "M" {
            let ts = require(e, "ts", &ctx)?;
            if ts.as_f64().is_none() {
                return Err(format!("{ctx}: `ts` is not a number"));
            }
        }
    }
    Ok(())
}

fn check_flight_ranks(doc: &Value, what: &str) -> Result<(), String> {
    for (i, r) in require_array(doc, "ranks", what)?.iter().enumerate() {
        let ctx = format!("{what}: ranks[{i}]");
        require_u64(r, "rank", &ctx)?;
        require_u64(r, "words_sent", &ctx)?;
        require_u64(r, "words_recv", &ctx)?;
        let overhead = require(r, "overhead", &ctx)?;
        for key in ["capacity", "recorded", "dropped", "overhead_ns"] {
            require_u64(overhead, key, &ctx)?;
        }
        let mut last = 0u64;
        for (j, e) in require_array(r, "events", &ctx)?.iter().enumerate() {
            let ectx = format!("{ctx}: events[{j}]");
            let t = require_u64(e, "t_ns", &ectx)?;
            if t < last {
                return Err(format!("{ectx}: timestamps went backwards ({last} -> {t})"));
            }
            last = t;
            let kind = require_str(e, "kind", &ectx)?;
            const KINDS: [&str; 7] =
                ["send", "recv", "phase_enter", "phase_exit", "counter", "fault", "alert"];
            if !KINDS.contains(&kind) {
                return Err(format!("{ectx}: unknown kind `{kind}`"));
            }
        }
    }
    Ok(())
}

fn check_metrics_registry(doc: &Value, what: &str) -> Result<(), String> {
    for key in ["counters", "gauges", "histograms"] {
        if !matches!(require(doc, key, what)?, Value::Object(_)) {
            return Err(format!("{what}: `{key}` is not an object"));
        }
    }
    if let Some(Value::Object(hists)) = doc.get("histograms") {
        for (name, h) in hists {
            check_histogram(h, &format!("{what}: histogram `{name}`"))?;
        }
    }
    Ok(())
}

fn check_alerts(doc: &Value, what: &str) -> Result<(), String> {
    for (i, a) in require_array(doc, "alerts", what)?.iter().enumerate() {
        let ctx = format!("{what}: alerts[{i}]");
        require_u64(a, "id", &ctx)?;
        require_u64(a, "t_ns", &ctx)?;
        require_str(a, "slo", &ctx)?;
        require_u64(a, "budget_ns", &ctx)?;
        for key in ["objective", "short_burn", "long_burn"] {
            if require(a, key, &ctx)?.as_f64().is_none() {
                return Err(format!("{ctx}: `{key}` is not a number"));
            }
        }
    }
    Ok(())
}

/// A telemetry cell's `hists`: `{name: {long, short}}`, both windows in
/// the shared histogram shape.
fn check_cell_hists(cell: &Value, what: &str) -> Result<(), String> {
    let Value::Object(hists) = require(cell, "hists", what)? else {
        return Err(format!("{what}: `hists` is not an object"));
    };
    for (name, h) in hists {
        for window in ["long", "short"] {
            check_histogram(require(h, window, what)?, &format!("{what}: hists.{name}.{window}"))?;
        }
    }
    Ok(())
}

fn check_telemetry(doc: &Value, what: &str) -> Result<(), String> {
    require_u64(doc, "interval_ns", what)?;
    let mut last = 0u64;
    for (i, s) in require_array(doc, "samples", what)?.iter().enumerate() {
        let ctx = format!("{what}: samples[{i}]");
        let t = require_u64(s, "t_ns", &ctx)?;
        if t < last {
            return Err(format!("{ctx}: sample times went backwards ({last} -> {t})"));
        }
        last = t;
        let derived = require(s, "derived", &ctx)?;
        for key in ["total_words_sent", "queue_depth", "batch_occupancy_pct", "retries", "degraded"]
        {
            require_u64(derived, key, &ctx)?;
        }
        for (r, cell) in require_array(s, "ranks", &ctx)?.iter().enumerate() {
            let rctx = format!("{ctx}: ranks[{r}]");
            require_u64(cell, "rank", &rctx)?;
            for (p, phase) in require_array(cell, "phases", &rctx)?.iter().enumerate() {
                let pctx = format!("{rctx}: phases[{p}]");
                require_str(phase, "phase", &pctx)?;
                for key in ["words_sent", "words_recv", "msgs_sent", "msgs_recv"] {
                    require_u64(phase, key, &pctx)?;
                }
            }
            check_cell_hists(cell, &rctx)?;
        }
        check_cell_hists(require(s, "serve", &ctx)?, &format!("{ctx}: serve"))?;
        check_alerts(s, &ctx)?;
    }
    check_alerts(doc, what)
}

fn require_bool(doc: &Value, key: &str, what: &str) -> Result<bool, String> {
    match require(doc, key, what)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("{what}: `{key}` is not a boolean")),
    }
}

fn check_check(doc: &Value, what: &str) -> Result<(), String> {
    for (i, m) in require_array(doc, "models", what)?.iter().enumerate() {
        let ctx = format!("{what}: models[{i}]");
        require_str(m, "name", &ctx)?;
        require_u64(m, "interleavings", &ctx)?;
        require_u64(m, "pruned", &ctx)?;
        require_u64(m, "wall_ms", &ctx)?;
        require_bool(m, "capped", &ctx)?;
        let violations = require_u64(m, "violations", &ctx)?;
        match require(m, "violation", &ctx)? {
            Value::Null if violations == 0 => {}
            Value::String(_) if violations > 0 => {}
            _ => {
                return Err(format!(
                    "{ctx}: `violation` disagrees with `violations` = {violations}"
                ))
            }
        }
    }
    if let Some(demo) = doc.get("race_demo") {
        let ctx = format!("{what}: race_demo");
        require_str(demo, "name", &ctx)?;
        require_bool(demo, "detected", &ctx)?;
        require_u64(demo, "interleavings", &ctx)?;
    }
    if let Some(m) = doc.get("mutation") {
        let ctx = format!("{what}: mutation");
        let total = require_u64(m, "total", &ctx)?;
        let killed = require_u64(m, "killed", &ctx)?;
        if killed > total {
            return Err(format!("{ctx}: killed = {killed} exceeds total = {total}"));
        }
        if require(m, "kill_rate", &ctx)?.as_f64().is_none_or(|r| !(0.0..=1.0).contains(&r)) {
            return Err(format!("{ctx}: `kill_rate` is not a number in [0, 1]"));
        }
        let runs = require_array(m, "runs", &ctx)?;
        if runs.len() as u64 != total {
            return Err(format!("{ctx}: `total` = {total} but runs has {} entries", runs.len()));
        }
        for (i, r) in runs.iter().enumerate() {
            let rctx = format!("{ctx}: runs[{i}]");
            require_str(r, "model", &rctx)?;
            require_str(r, "slot", &rctx)?;
            require_str(r, "from", &rctx)?;
            require_bool(r, "killed", &rctx)?;
            require_u64(r, "interleavings", &rctx)?;
        }
    }
    let lint = require(doc, "lint", what)?;
    let ctx = format!("{what}: lint");
    let findings = require_u64(lint, "findings", &ctx)?;
    let items = require_array(lint, "items", &ctx)?;
    if items.len() as u64 != findings {
        return Err(format!(
            "{ctx}: `findings` = {findings} but items has {} entries",
            items.len()
        ));
    }
    for (i, f) in items.iter().enumerate() {
        let fctx = format!("{ctx}: items[{i}]");
        require_str(f, "file", &fctx)?;
        require_u64(f, "line", &fctx)?;
        require_str(f, "rule", &fctx)?;
    }
    Ok(())
}

/// Validates `doc` against the workspace's artifact contracts, returning
/// which kind it is — or a message naming the first malformed field.
pub fn validate(doc: &Value) -> Result<ArtifactKind, String> {
    let Value::Object(fields) = doc else {
        return Err("artifact is not a JSON object".to_string());
    };
    match doc.get("version").and_then(Value::as_str) {
        Some("symtensor-flight-v1") => {
            check_flight_ranks(doc, "flight")?;
            return Ok(ArtifactKind::Flight);
        }
        Some("symtensor-postmortem-v1") => {
            let what = "postmortem";
            require_u64(doc, "failing_rank", what)?;
            require_str(doc, "message", what)?;
            let report = require(doc, "report", what)?;
            for (i, r) in require_array(report, "per_rank", what)?.iter().enumerate() {
                let ctx = format!("{what}: report.per_rank[{i}]");
                for key in ["rank", "words_sent", "words_recv", "msgs_sent", "msgs_recv"] {
                    require_u64(r, key, &ctx)?;
                }
            }
            check_flight_ranks(doc, what)?;
            check_chrome(require(doc, "chrome", what)?, "postmortem: embedded chrome")?;
            return Ok(ArtifactKind::Postmortem);
        }
        Some("symtensor-telemetry-v1") => {
            check_telemetry(doc, "telemetry")?;
            return Ok(ArtifactKind::Telemetry);
        }
        Some("symtensor-check-v1") => {
            check_check(doc, "check")?;
            return Ok(ArtifactKind::Check);
        }
        Some(other) => return Err(format!("unknown artifact version `{other}`")),
        None => {}
    }
    if doc.get("traceEvents").is_some() {
        check_chrome(doc, "chrome-trace")?;
        return Ok(ArtifactKind::ChromeTrace);
    }
    if doc.get("rows").is_some() && doc.get("threshold").is_some() {
        let what = "regress-diff";
        if require(doc, "threshold", what)?.as_f64().is_none() {
            return Err(format!("{what}: `threshold` is not a number"));
        }
        require(doc, "regressed", what)?;
        for (i, row) in require_array(doc, "rows", what)?.iter().enumerate() {
            let ctx = format!("{what}: rows[{i}]");
            require_str(row, "kernel", &ctx)?;
            require_str(row, "verdict", &ctx)?;
        }
        return Ok(ArtifactKind::RegressDiff);
    }
    if doc.get("results").is_some() {
        let what = "bench-snapshot";
        for (i, r) in require_array(doc, "results", what)?.iter().enumerate() {
            let ctx = format!("{what}: results[{i}]");
            require_str(r, "kernel", &ctx)?;
            require_u64(r, "n", &ctx)?;
            if require(r, "ns_per_iter", &ctx)?.as_f64().is_none() {
                return Err(format!("{ctx}: `ns_per_iter` is not a number"));
            }
        }
        return Ok(ArtifactKind::Bench);
    }
    if doc.get("counters").is_some() {
        check_metrics_registry(doc, "metrics")?;
        return Ok(ArtifactKind::Metrics);
    }
    // The CLI's per-label metrics bundle: every top-level value is an
    // object wrapping a registry under `metrics`.
    if !fields.is_empty()
        && fields.iter().all(|(_, v)| matches!(v, Value::Object(_)) && v.get("metrics").is_some())
    {
        for (label, entry) in fields {
            check_metrics_registry(entry.get("metrics").unwrap(), &format!("metrics[{label}]"))?;
        }
        return Ok(ArtifactKind::Metrics);
    }
    Err("unrecognized artifact shape".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn registry_and_chrome_and_flight_docs_validate() {
        use symtensor_mpsim::Universe;
        let (_, report, flight) = Universe::new(2)
            .try_run_traced(|comm| {
                comm.with_phase("swap", || {
                    comm.exchange(1 - comm.rank(), 0, vec![0.0; 2]).unwrap()
                });
                comm.annotate_counter("plan:arena_bytes", 64);
            })
            .unwrap();
        let traces: Vec<_> = flight.iter().map(|snap| snap.events.clone()).collect();
        let metrics = crate::MetricsRegistry::new();
        metrics.record_run(&report, &traces);
        assert_eq!(validate(&metrics.to_json()), Ok(ArtifactKind::Metrics));
        assert_eq!(validate(&crate::chrome_trace(&traces)), Ok(ArtifactKind::ChromeTrace));
        assert_eq!(validate(&crate::flight::flight_json(&flight)), Ok(ArtifactKind::Flight));
    }

    #[test]
    fn malformed_documents_name_the_offending_field() {
        let doc = json::parse(r#"{"traceEvents": [{"ph": "X", "pid": 1, "tid": 0}]}"#).unwrap();
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("ts"), "got: {err}");

        let doc = json::parse(r#"{"version": "symtensor-flight-v9"}"#).unwrap();
        assert!(validate(&doc).unwrap_err().contains("version"));

        // Event kinds are a closed set: `fault` and `counter` are known,
        // anything else is named.
        let flight_doc = |kind: &str| {
            json::parse(&format!(
                r#"{{"version": "symtensor-flight-v1", "ranks": [
                    {{"rank": 0, "words_sent": 0, "words_recv": 0,
                      "overhead": {{"capacity": 1, "recorded": 1, "dropped": 0, "overhead_ns": 0}},
                      "events": [{{"t_ns": 1, "kind": "{kind}"}}]}}]}}"#
            ))
            .unwrap()
        };
        assert_eq!(validate(&flight_doc("fault")), Ok(ArtifactKind::Flight));
        assert_eq!(validate(&flight_doc("counter")), Ok(ArtifactKind::Flight));
        assert!(validate(&flight_doc("packed")).unwrap_err().contains("packed"));

        let doc =
            json::parse(r#"{"rows": [{"kernel": "k"}], "threshold": 0.25, "regressed": false}"#)
                .unwrap();
        assert!(validate(&doc).unwrap_err().contains("verdict"));

        assert!(validate(&Value::Array(vec![])).is_err());
    }

    #[test]
    fn empty_histogram_must_report_null_quantiles_not_zero() {
        let doc = json::parse(
            r#"{"counters": {}, "gauges": {}, "histograms":
                {"h": {"count": 0, "sum": 0, "min": 0, "max": 0, "mean": 0.0,
                       "p50": 0, "p90": 0, "p99": 0, "buckets": []}}}"#,
        )
        .unwrap();
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("p50"), "a 0-quantile on an empty histogram must be rejected: {err}");
    }

    #[test]
    fn empty_telemetry_window_must_report_null_quantiles_not_zero() {
        let doc = |p50: &str| {
            json::parse(&format!(
                r#"{{"version": "symtensor-telemetry-v1", "interval_ns": 1, "alerts": [],
                    "samples": [{{"t_ns": 0, "alerts": [], "ranks": [],
                      "derived": {{"total_words_sent": 0, "queue_depth": 0,
                                   "batch_occupancy_pct": 0, "retries": 0, "degraded": 0}},
                      "serve": {{"phases": [], "gauges": {{}}, "hists": {{"serve:e2e_ns": {{
                        "long": {{"count": 0, "sum": 0, "min": 0, "max": 0, "mean": 0.0,
                                 "p50": null, "p90": null, "p99": null, "buckets": []}},
                        "short": {{"count": 0, "sum": 0, "min": 0, "max": 0, "mean": 0.0,
                                  "p50": {p50}, "p90": null, "p99": null, "buckets": []}}
                      }}}}}}}}]}}"#
            ))
            .unwrap()
        };
        assert_eq!(validate(&doc("null")), Ok(ArtifactKind::Telemetry));
        let err = validate(&doc("0")).unwrap_err();
        assert!(err.contains("hists.serve:e2e_ns.short") && err.contains("p50"), "{err}");
    }

    #[test]
    fn bench_snapshot_shape_validates() {
        let doc = json::parse(
            r#"{"benchmark": "kernels",
                "results": [{"kernel": "flat", "n": 128, "q": null, "ns_per_iter": 1234.5}]}"#,
        )
        .unwrap();
        assert_eq!(validate(&doc), Ok(ArtifactKind::Bench));
    }

    #[test]
    fn check_artifact_validates_and_bad_shapes_are_named() {
        let doc = json::parse(
            r#"{"version": "symtensor-check-v1",
                "models": [{"name": "seqlock", "interleavings": 497, "pruned": 210,
                            "capped": false, "wall_ms": 12, "violations": 0, "violation": null}],
                "race_demo": {"name": "racy-counter-demo", "detected": true, "interleavings": 2},
                "mutation": {"total": 1, "killed": 1, "kill_rate": 1.0,
                             "runs": [{"model": "seqlock", "slot": "writer-exit",
                                       "from": "Release", "killed": true, "interleavings": 3}]},
                "lint": {"findings": 1,
                         "items": [{"file": "crates/telemetry/src/lib.rs", "line": 9,
                                    "rule": "no-panic-path"}]}}"#,
        )
        .unwrap();
        assert_eq!(validate(&doc), Ok(ArtifactKind::Check));
        assert_eq!(ArtifactKind::Check.to_string(), "check");

        // A violation string with `violations` = 0 is inconsistent.
        let bad = json::parse(
            r#"{"version": "symtensor-check-v1",
                "models": [{"name": "seqlock", "interleavings": 1, "pruned": 0,
                            "capped": false, "wall_ms": 0, "violations": 0,
                            "violation": "torn read"}],
                "lint": {"findings": 0, "items": []}}"#,
        )
        .unwrap();
        let err = validate(&bad).unwrap_err();
        assert!(err.contains("violation"), "{err}");

        // The lint count must match the item list.
        let bad = json::parse(
            r#"{"version": "symtensor-check-v1", "models": [],
                "lint": {"findings": 2, "items": []}}"#,
        )
        .unwrap();
        let err = validate(&bad).unwrap_err();
        assert!(err.contains("findings"), "{err}");
    }
}
