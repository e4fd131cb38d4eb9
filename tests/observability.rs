//! Acceptance tests for the observability layer: comm-matrix marginals
//! reconcile with the hot-path `CostReport` on real Algorithm-5 runs,
//! Chrome trace export is valid JSON with per-rank monotone timestamps,
//! and tracing is zero-cost (identical `CostReport` on vs. off).

use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor_core::generate::random_symmetric;
use symtensor_mpsim::CommEvent;
use symtensor_obs::occupancy::spherical_step_bound;
use symtensor_obs::{json, phase_stats, RunObservation};
use symtensor_parallel::{
    parallel_sttsv, parallel_sttsv_with, Mode, SttsvOptions, SttsvRun, TetraPartition,
};
use symtensor_steiner::spherical;

/// One event-traced single-vector run.
fn traced(
    tensor: &symtensor_core::SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
) -> (SttsvRun, Vec<Vec<CommEvent>>) {
    let opts = SttsvOptions { trace: true, ..SttsvOptions::new(mode) };
    let mut run = parallel_sttsv_with(tensor, part, std::slice::from_ref(&x), opts).unwrap();
    let (y, traces) = (run.ys.remove(0), run.traces());
    (SttsvRun { y, report: run.report, ternary_per_rank: run.ternary_per_rank }, traces)
}

fn traced_alg5(q: usize, seed: u64, mode: Mode) -> (SttsvRun, Vec<Vec<CommEvent>>) {
    let n = (q * q + 1) * q * (q + 1);
    let part = TetraPartition::new(spherical(q as u64), n).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.013).sin()).collect();
    traced(&tensor, &part, &x, mode)
}

/// Property over `q ∈ {2, 3, 4}` (P = 10, 30, 170) and random tensors: the
/// trace-derived P×P matrix marginals must equal the `CostReport` counters
/// (words and messages, sent and received, for every rank).
#[test]
fn comm_matrix_marginals_reconcile_for_q_2_3_4() {
    for (q, seeds) in [(2usize, vec![11u64, 12, 13]), (3, vec![21, 22]), (4, vec![31])] {
        for seed in seeds {
            for mode in [Mode::Scheduled, Mode::AllToAllSparse] {
                let (run, traces) = traced_alg5(q, seed, mode);
                let obs = RunObservation::new(run.report.clone(), traces);
                // `comm_matrix()` panics on any marginal mismatch.
                let matrix = obs.comm_matrix();
                assert_eq!(
                    matrix.total_words(),
                    run.report.total_words_sent(),
                    "q = {q} seed = {seed}"
                );
                for rank in 0..matrix.size() {
                    assert_eq!(matrix.row_words(rank), run.report.per_rank[rank].words_sent);
                    assert_eq!(matrix.col_words(rank), run.report.per_rank[rank].words_recv);
                }
            }
        }
    }
}

#[test]
fn chrome_trace_is_valid_json_with_monotone_per_rank_timestamps() {
    let (run, traces) = traced_alg5(3, 99, Mode::Scheduled);
    // Raw per-rank logs are timestamp-ordered.
    for rank_events in &traces {
        let mut last = 0u64;
        for e in rank_events {
            assert!(e.t_ns >= last, "per-rank timestamps must be non-decreasing");
            last = e.t_ns;
        }
    }
    let obs = RunObservation::new(run.report, traces);
    let text = obs.chrome_trace().to_string_pretty();
    let doc = json::parse(&text).expect("chrome trace must be valid JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    // Non-metadata events carry non-decreasing `ts` per (pid, tid) track.
    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
    for e in events {
        let ph = e.get("ph").and_then(json::Value::as_str).unwrap();
        if ph == "M" {
            continue;
        }
        let key =
            (e.get("pid").unwrap().as_u64().unwrap(), e.get("tid").unwrap().as_u64().unwrap());
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        if let Some(&prev) = last_ts.get(&key) {
            assert!(ts >= prev, "track {key:?} went backwards: {prev} -> {ts}");
        }
        last_ts.insert(key, ts);
    }
}

/// Zero-cost requirement: the tracing-on run must report exactly the same
/// communication costs as the tracing-off run (`CostReport` is
/// `PartialEq`; every counter of every rank must match).
#[test]
fn tracing_on_and_off_yield_identical_cost_reports() {
    for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
        let q = 2;
        let n = (q * q + 1) * q * (q + 1);
        let part = TetraPartition::new(spherical(q as u64), n).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).cos()).collect();
        let plain = parallel_sttsv(&tensor, &part, &x, mode);
        let (run, traces) = traced(&tensor, &part, &x, mode);
        assert_eq!(plain.report, run.report, "tracing must not change costs");
        assert_eq!(plain.y, run.y, "tracing must not change results");
        assert!(traces.iter().any(|t| !t.is_empty()), "traced run must record events");
    }
}

/// The per-phase word totals (top-level spans) partition the run's totals
/// exactly, and the scheduled run's observed rounds meet the paper's
/// `q³/2 + 3q²/2 − 1` step bound with full sender occupancy.
#[test]
fn phase_totals_partition_run_and_occupancy_meets_step_bound() {
    for q in [2usize, 3] {
        let (run, traces) = traced_alg5(q, 55, Mode::Scheduled);
        let obs = RunObservation::new(run.report.clone(), traces);
        let spans = obs.spans();
        let stats = phase_stats(&spans);
        let sent: u64 = stats.values().map(|s| s.total_cost.words_sent).sum();
        let recv: u64 = stats.values().map(|s| s.total_cost.words_recv).sum();
        assert_eq!(sent, run.report.total_words_sent(), "q = {q}");
        assert_eq!(recv, run.report.total_words_recv(), "q = {q}");
        assert!(stats.contains_key("gather-x"));
        assert!(stats.contains_key("local-compute"));
        assert!(stats.contains_key("reduce-y"));

        let occ = obs.occupancy();
        assert_eq!(occ.num_rounds() as u64, spherical_step_bound(q), "q = {q}");
        assert!(occ.within_step_bound(q));
        assert!((occ.mean_sender_utilization() - 1.0).abs() < 1e-12, "perfect pairing rounds");
    }
}

/// The traced compiled-plan run feeds the observability pipeline: its comm
/// matrix reconciles with its `CostReport`, which is itself identical (per
/// rank, not just in aggregate) to the untraced run's.
#[test]
fn planned_traced_run_reconciles_matrix_and_report() {
    for q in [2usize, 3] {
        let n = (q * q + 1) * q * (q + 1);
        let part = TetraPartition::new(spherical(q as u64), n).unwrap();
        let mut rng = StdRng::seed_from_u64(77 + q as u64);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.013).sin()).collect();
        let (planned, traces) = traced(&tensor, &part, &x, Mode::Scheduled);
        let plain = parallel_sttsv(&tensor, &part, &x, Mode::Scheduled);
        assert_eq!(planned.report, plain.report, "q = {q}: tracing must not change comm costs");
        assert_eq!(planned.y, plain.y, "q = {q}: tracing must not change a bit");
        let obs = RunObservation::new(planned.report.clone(), traces);
        // comm_matrix() panics if the trace marginals disagree with the
        // hot-path counters.
        let m = obs.comm_matrix();
        assert_eq!(m.total_words(), planned.report.total_words_sent(), "q = {q}");
        let occ = obs.occupancy();
        assert_eq!(occ.num_rounds() as u64, spherical_step_bound(q), "q = {q}");
    }
}
