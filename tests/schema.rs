//! Every JSON artifact family the workspace emits must pass the one shared
//! validator ([`symtensor_obs::validate`]) and come back as the expected
//! kind. The generators here are the real ones — the same code paths the
//! CLI binaries and the crash machinery use — so a shape drift in any
//! emitter fails this test before it breaks a downstream consumer.

use std::sync::Arc;
use symtensor_mpsim::Universe;
use symtensor_obs::json::{self, Value};
use symtensor_obs::{
    chrome_trace, flight_json, postmortem_json, telemetry_json, validate, ArtifactKind, BenchKey,
    BenchRecord, MetricsRegistry, RegressionReport, RunObservation,
};
use symtensor_telemetry::{ScrapeConfig, Scraper, TelemetryPlane};

/// One tiny traced run shared by the generators below.
fn traced_run() -> (
    symtensor_mpsim::cost::CostReport,
    Vec<Vec<symtensor_mpsim::cost::CommEvent>>,
    Vec<symtensor_mpsim::FlightSnapshot>,
) {
    let (_, report, flight) = Universe::new(2)
        .try_run_traced(|comm| {
            comm.with_phase("swap", || comm.exchange(1 - comm.rank(), 0, vec![0.0; 4]).unwrap())
        })
        .expect("clean run");
    let traces = flight.iter().map(|log| log.events.clone()).collect();
    (report, traces, flight)
}

fn bench_records(scale: f64) -> Vec<BenchRecord> {
    ["flat_slab", "blocked"]
        .iter()
        .map(|kernel| BenchRecord {
            key: BenchKey { kernel: kernel.to_string(), n: 128, q: Some(2) },
            ns_per_iter: 1000.0 * scale,
        })
        .collect()
}

#[test]
fn every_artifact_family_passes_the_shared_validator() {
    let (report, traces, flight) = traced_run();

    // 1. Bare metrics registry (the `--metrics` payload's inner document).
    let metrics = MetricsRegistry::new();
    metrics.record_run(&report, &traces);
    assert_eq!(validate(&metrics.to_json()), Ok(ArtifactKind::Metrics));

    // 2. The CLI's per-label metrics bundle, exactly as `ObsSink` writes it.
    let obs = RunObservation::new(report.clone(), traces.clone());
    let bundle = Value::object().with(
        "swap run",
        Value::object()
            .with("metrics", obs.metrics().to_json())
            .with("comm_matrix", obs.comm_matrix().to_json())
            .with("occupancy", obs.occupancy().to_json()),
    );
    assert_eq!(validate(&bundle), Ok(ArtifactKind::Metrics));

    // 3. Chrome trace.
    assert_eq!(validate(&chrome_trace(&traces)), Ok(ArtifactKind::ChromeTrace));

    // 4. Perf-regression diff, from a real evaluate.
    let diff = RegressionReport::evaluate(&bench_records(1.0), &bench_records(1.3), 0.15);
    assert!(diff.regressed());
    assert_eq!(validate(&diff.to_json()), Ok(ArtifactKind::RegressDiff));

    // 5. Flight window.
    assert_eq!(validate(&flight_json(&flight)), Ok(ArtifactKind::Flight));

    // 6. Post-mortem dump, from a real crash.
    let failure = Universe::new(2)
        .try_run_traced(|comm| {
            comm.with_phase("swap", || {
                comm.send(1 - comm.rank(), 0, vec![0.0; 4]);
                if comm.rank() == 0 {
                    panic!("schema-test crash");
                }
                let _ = comm.recv(1 - comm.rank(), 0);
            })
        })
        .expect_err("rank 0 panics");
    assert_eq!(validate(&postmortem_json(&failure)), Ok(ArtifactKind::Postmortem));

    // 7. Telemetry series, scraped from a real telemetered universe run
    //    and round-tripped through the text form.
    let plane = Arc::new(TelemetryPlane::new(2));
    let mut scraper =
        Scraper::new(plane.clone(), ScrapeConfig::default().with_budget_words_per_vector(4));
    Universe::new(2).with_telemetry(plane).run(|comm| {
        comm.with_phase("swap", || comm.exchange(1 - comm.rank(), 0, vec![0.0; 4]).unwrap())
    });
    scraper.sample();
    let doc = telemetry_json(&scraper.into_series());
    assert_eq!(validate(&doc), Ok(ArtifactKind::Telemetry));
    let reparsed = json::parse(&doc.to_string_pretty()).expect("telemetry text parses back");
    assert_eq!(validate(&reparsed), Ok(ArtifactKind::Telemetry));
}

/// The committed bench snapshots in the repo root are themselves valid
/// artifacts — the perf gate reads them, so they must stay parseable by
/// the shared validator too.
#[test]
fn committed_bench_snapshots_validate() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seen = 0;
    for entry in std::fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: invalid JSON: {e}"));
        assert_eq!(validate(&doc), Ok(ArtifactKind::Bench), "{name} failed validation");
        seen += 1;
    }
    assert!(seen > 0, "no BENCH_*.json snapshots found at the repo root");
}

/// The validator rejects close-but-wrong documents with an error naming
/// the offending field — the property CI relies on to triage artifacts.
#[test]
fn validator_errors_name_the_offending_field() {
    let (_, _, flight) = traced_run();

    // A flight dump whose events lost their timestamps.
    let mut doc = flight_json(&flight);
    if let Value::Object(fields) = &mut doc {
        for (key, v) in fields.iter_mut() {
            if key == "ranks" {
                *v = json::parse(r#"[{"rank": 0, "words_sent": 0, "words_recv": 0}]"#).unwrap();
            }
        }
    }
    let err = validate(&doc).unwrap_err();
    assert!(err.contains("overhead"), "got: {err}");

    // An unknown artifact version must be rejected, not guessed at.
    let doc = json::parse(r#"{"version": "symtensor-postmortem-v99"}"#).unwrap();
    assert!(validate(&doc).unwrap_err().contains("version"));
}
