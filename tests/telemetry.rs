//! Telemetry-plane acceptance tests: the live metrics plane must be
//! invisible to the numerics (bit-identical outputs and cost reports
//! with telemetry on and off), its per-phase word gauges must reconcile
//! ±0 with the final `CostReport` comm matrix, the SLO burn-rate
//! evaluator must fire under a breached budget and land in the
//! post-mortem flight window, and the Prometheus exposition must match
//! its golden file byte-for-byte.

use rand::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use symtensor_core::generate::random_symmetric;
use symtensor_core::SymTensor3;
use symtensor_mpsim::{CommEventKind, FaultPlan};
use symtensor_parallel::{
    bounds, parallel_sttsv_serve, serve, ChaosPolicy, Mode, ServeConfig, ServeRequest,
    TetraPartition,
};
use symtensor_steiner::spherical;
use symtensor_telemetry::{
    keys, prometheus_text, sample_plane, ClusterSnapshot, PlaneConfig, ScrapeConfig, SloBurnRate,
    TelemetryPlane,
};

fn setup(q: u64) -> (SymTensor3, TetraPartition) {
    let qs = q as usize;
    let n = (qs * qs + 1) * qs * (qs + 1);
    let part = TetraPartition::new(spherical(q), n).unwrap();
    let tensor = random_symmetric(n, &mut StdRng::seed_from_u64(17));
    (tensor, part)
}

fn requests(n: usize, count: usize) -> Vec<ServeRequest> {
    (0..count)
        .map(|v| {
            let x: Vec<f64> = (0..n).map(|i| ((i + 3 * v) % 11) as f64 - 4.0).collect();
            ServeRequest::new(v as u64, x)
        })
        .collect()
}

/// Telemetry publication must never perturb the computation: the served
/// outputs are bit-identical and the comm counters equal with the plane
/// attached and detached, for both spherical layouts.
#[test]
fn serve_outputs_are_bit_identical_with_telemetry_on_and_off() {
    for q in [2u64, 3] {
        let (tensor, part) = setup(q);
        let reqs = requests(part.dim(), 6);
        let base = parallel_sttsv_serve(&tensor, &part, &reqs, Mode::Scheduled, 1, 2)
            .expect("baseline serve");
        let plane = Arc::new(TelemetryPlane::new(part.num_procs()));
        let cfg = ServeConfig { telemetry: Some(&plane), ..ServeConfig::new(Mode::Scheduled, 2) };
        let run = serve(&tensor, &part, &reqs, cfg).expect("telemetered serve");
        assert_eq!(base.ys.len(), run.ys.len());
        for (a, b) in base.ys.iter().zip(&run.ys) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "telemetry perturbed an output (q={q})");
            }
        }
        assert_eq!(base.report, run.report, "telemetry perturbed the comm counters (q={q})");
    }
}

/// The live per-rank per-phase word/message gauges, summed over phases,
/// must reconcile ±0 with the final `CostReport` comm matrix — the
/// scraper sees exactly what the cost model counted, for q ∈ {2, 3}.
#[test]
fn live_word_gauges_reconcile_with_the_final_cost_report() {
    for q in [2u64, 3] {
        let (tensor, part) = setup(q);
        let reqs = requests(part.dim(), 6);
        let plane = Arc::new(TelemetryPlane::new(part.num_procs()));
        let cfg = ServeConfig { telemetry: Some(&plane), ..ServeConfig::new(Mode::Scheduled, 3) };
        let run = serve(&tensor, &part, &reqs, cfg).expect("telemetered serve");
        let budget = 2 * bounds::scheduled_words_per_vector(part.dim(), q as usize) as u64;
        let cfg = ScrapeConfig::default().with_budget_words_per_vector(budget);
        let snap = sample_plane(&plane, &cfg);
        assert_eq!(snap.ranks.len(), run.report.per_rank.len());
        for (r, cost) in run.report.per_rank.iter().enumerate() {
            let cell = &snap.ranks[r];
            assert_eq!(cell.words_sent_total(), cost.words_sent, "rank {r} words_sent (q={q})");
            assert_eq!(cell.words_recv_total(), cost.words_recv, "rank {r} words_recv (q={q})");
            let msgs_sent: u64 = cell.phases.iter().map(|p| p.msgs_sent).sum();
            let msgs_recv: u64 = cell.phases.iter().map(|p| p.msgs_recv).sum();
            assert_eq!(msgs_sent, cost.msgs_sent, "rank {r} msgs_sent (q={q})");
            assert_eq!(msgs_recv, cost.msgs_recv, "rank {r} msgs_recv (q={q})");
        }
        // The traffic is attributed to the two exchange phases, not the
        // unphased catch-all slot.
        let r0 = &snap.ranks[0];
        assert!(r0.phase("gather-x").is_some_and(|p| p.words_sent > 0));
        assert!(r0.phase("reduce-y").is_some_and(|p| p.words_sent > 0));
        // And the derived ratio lands exactly on the scheduled budget:
        // each rank sends `scheduled_words_per_vector` in each of the two
        // exchange phases per served vector.
        assert_eq!(
            snap.derived.budget_ratio,
            Some(1.0),
            "sent words must sit exactly on 2·scheduled_words_per_vector (q={q})"
        );
        assert_eq!(snap.serve.gauge(keys::VECTORS_DONE), Some(reqs.len() as u64));
    }
}

/// With an impossible 1 ns latency budget every request breaches, so the
/// multi-window evaluator fires during the chaos serve and every rank
/// stamps the alert into its flight ring — the alert is visible in the
/// post-mortem flight window carrying the plane's alert id.
#[test]
fn chaos_slo_alert_fires_and_is_stamped_into_the_flight_window() {
    let (tensor, part) = setup(2);
    let reqs = requests(part.dim(), 8);
    let plane = Arc::new(TelemetryPlane::new(part.num_procs()));
    let mut slo = SloBurnRate::serve_e2e(1);
    let policy = ChaosPolicy {
        plan: FaultPlan::seeded(11),
        max_retries: 2,
        backoff: Duration::from_millis(5),
        recv_timeout: Duration::from_millis(250),
    };
    let cfg = ServeConfig {
        telemetry: Some(&plane),
        chaos: Some(&policy),
        slo: Some(&mut slo),
        ..ServeConfig::new(Mode::Scheduled, 2)
    };
    let run = serve(&tensor, &part, &reqs, cfg).expect("chaos serve");
    let alerts = plane.alerts();
    assert!(!alerts.is_empty(), "a 1 ns budget must burn the SLO");
    let stamped: Vec<u64> = run
        .flight
        .iter()
        .flat_map(|f| f.events.iter())
        .filter_map(|e| match e.kind {
            CommEventKind::Alert { id } => Some(id),
            _ => None,
        })
        .collect();
    assert!(!stamped.is_empty(), "alert records must land in the flight window");
    for id in &stamped {
        assert!(alerts.iter().any(|a| a.id == *id), "flight alert id {id} unknown to the plane");
    }
}

/// A fully pinned snapshot (virtual slice clock, explicit observation
/// times, pinned sample time) renders exactly the golden exposition.
fn golden_snapshot() -> ClusterSnapshot {
    let plane = TelemetryPlane::with_config(PlaneConfig::new(2).with_slice_ns(1 << 40));
    let gather = plane.phase_slot("gather-x");
    let reduce = plane.phase_slot("reduce-y");
    plane.rank_cell(0).on_send(gather, 15);
    plane.rank_cell(0).on_recv(gather, 15);
    plane.rank_cell(0).on_send(reduce, 15);
    plane.rank_cell(0).on_recv(reduce, 15);
    plane.rank_cell(1).on_send(gather, 15);
    plane.rank_cell(1).on_recv(gather, 15);
    plane.rank_cell(1).on_send(reduce, 15);
    plane.rank_cell(1).on_recv(reduce, 15);
    let e2e = plane.hist_slot(keys::E2E_NS);
    plane.serve_cell().observe(e2e, 0, 800);
    plane.serve_cell().observe(e2e, 0, 1300);
    let vectors = plane.gauge_slot(keys::VECTORS_DONE);
    plane.serve_cell().gauge_set(vectors, 1);
    let cfg = ScrapeConfig::default().with_budget_words_per_vector(30);
    let mut snap = sample_plane(&plane, &cfg);
    snap.t_ns = 123_456_789; // the only wall-clock-dependent field
    snap
}

#[test]
fn prometheus_exposition_matches_the_golden_file() {
    let text = prometheus_text(&golden_snapshot());
    // `UPDATE_GOLDEN=1 cargo test -p symtensor-cli --test telemetry`
    // rewrites the golden after an intentional format change.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/prometheus.txt");
        std::fs::write(path, &text).expect("rewrite golden");
    }
    let golden = include_str!("golden/prometheus.txt");
    assert_eq!(
        text, golden,
        "Prometheus exposition drifted from tests/golden/prometheus.txt; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
