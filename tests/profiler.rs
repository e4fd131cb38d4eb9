//! PR 4 acceptance: the profiling layer — virtual-clock replay under the
//! α-β-γ model, critical-path extraction, latency histograms, and their
//! reconciliation with the paper's closed-form schedule costs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor_core::generate::random_symmetric;
use symtensor_mpsim::CommEvent;
use symtensor_obs::critical::{CriticalPath, StragglerReport};
use symtensor_obs::replay::{replay, replay_with_drift, AlphaBetaModel};
use symtensor_obs::ProfileHistograms;
use symtensor_parallel::{bounds, parallel_sttsv_with, Mode, SttsvOptions, TetraPartition};
use symtensor_steiner::spherical;

fn traced_run(q: usize, mode: Mode) -> (Vec<f64>, Vec<Vec<CommEvent>>, usize) {
    let n = (q * q + 1) * q * (q + 1);
    let part = TetraPartition::new(spherical(q as u64), n).unwrap();
    let mut rng = StdRng::seed_from_u64(99 + q as u64);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin()).collect();
    let opts = SttsvOptions { trace: true, ..SttsvOptions::new(mode) };
    let mut run = parallel_sttsv_with(&tensor, &part, &[x], opts).unwrap();
    (run.ys.remove(0), run.traces, n)
}

/// The headline acceptance property: under the pure-bandwidth model
/// (α=0, β=1, γ=0) the replayed makespan of the scheduled algorithm
/// reconciles *exactly* (±0 words) with twice the closed-form per-vector
/// word count `scheduled_words_per_vector` — the factor 2 covers the
/// gather-x and reduce-y phases, each of which moves exactly W words on
/// every rank's critical chain.
#[test]
fn scheduled_makespan_reconciles_with_closed_form() {
    for q in [2usize, 3] {
        let (_, traces, n) = traced_run(q, Mode::Scheduled);
        let rep = replay(&traces, AlphaBetaModel::bandwidth_only()).unwrap();
        let w2 = 2 * bounds::scheduled_words_per_vector(n, q);
        // Per-rank send busy time under β=1 is exactly the words sent.
        assert_eq!(rep.max_send_busy_ns(), w2 as f64, "q={q}: max send-busy must equal 2·W_sched");
        // And the full happens-before replay telescopes to the same number:
        // no rank ever waits long enough to stretch the chain past 2W.
        assert_eq!(rep.makespan_ns, w2 as f64, "q={q}: modeled makespan must equal 2·W_sched");
        // The critical path explains the whole makespan.
        let cp = CriticalPath::extract(&rep);
        assert_eq!(cp.length_ns(), rep.makespan_ns);
    }
}

/// Satellite (c), part 1: with α=β=0 and γ=1 communication is free, so the
/// replayed makespan must equal the maximum per-rank measured compute time
/// — each path contains at most one rank's compute span.
#[test]
fn compute_only_makespan_is_max_rank_compute() {
    for q in [2usize, 3] {
        for mode in [Mode::Scheduled, Mode::AllToAllPadded] {
            let (_, traces, _) = traced_run(q, mode);
            let rep = replay(&traces, AlphaBetaModel::compute_only()).unwrap();
            let max_compute: f64 = rep.ranks.iter().map(|r| r.compute_ns).fold(0.0, f64::max);
            assert_eq!(
                rep.makespan_ns, max_compute,
                "q={q} {mode:?}: compute-only makespan must be the slowest rank's compute"
            );
        }
    }
}

/// Satellite (c), part 2: for any model, the critical-path length is
/// sandwiched between the trivial lower bound (the heaviest single rank's
/// busy time, since that rank's ops form a chain) and the sum of all event
/// weights (a path visits each op at most once).
#[test]
fn critical_path_respects_weight_bounds() {
    let model = AlphaBetaModel { alpha: 3.0, beta: 0.5, gamma: 1.0, link_ns: 0.0 };
    for q in [2usize, 3] {
        let (_, traces, _) = traced_run(q, Mode::Scheduled);
        let rep = replay(&traces, model).unwrap();
        let cp = CriticalPath::extract(&rep);
        let per_rank_busy =
            rep.ranks.iter().map(|r| r.compute_ns + r.send_busy_ns).fold(0.0, f64::max);
        assert!(
            cp.length_ns() >= per_rank_busy,
            "q={q}: path {} < busiest rank {per_rank_busy}",
            cp.length_ns()
        );
        assert!(
            cp.length_ns() <= rep.total_weight_ns() + 1e-9,
            "q={q}: path {} > total weight {}",
            cp.length_ns(),
            rep.total_weight_ns()
        );
        // Makespan equals the path length by construction, and every step's
        // contribution is nonnegative.
        assert_eq!(cp.length_ns(), rep.makespan_ns);
        assert!(cp.steps.iter().all(|s| s.contribution >= 0.0));
    }
}

/// The traced parallel result stays numerically identical to the serial
/// kernel — profiling is observation, not perturbation.
#[test]
fn traced_run_matches_serial() {
    let q = 2usize;
    let n = (q * q + 1) * q * (q + 1);
    let mut rng = StdRng::seed_from_u64(99 + q as u64);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin()).collect();
    let (serial, _) = symtensor_core::sttsv_sym(&tensor, &x);
    let (y, _, _) = traced_run(q, Mode::Scheduled);
    for (a, b) in y.iter().zip(serial.iter()) {
        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
    }
}

/// Latency histograms built from a real traced run: every send is matched,
/// recv-wait and round-step histograms are populated, and quantiles are
/// ordered.
#[test]
fn profile_histograms_from_scheduled_run() {
    let (_, traces, _) = traced_run(3, Mode::Scheduled);
    let h = ProfileHistograms::from_traces(&traces);
    assert!(h.message_words.count > 0);
    assert_eq!(h.recv_wait_ns.count, h.message_words.count);
    assert!(h.round_step_ns.count > 0);
    for hist in [&h.round_step_ns, &h.recv_wait_ns, &h.message_words] {
        assert!(hist.p50() <= hist.p90());
        assert!(hist.p90() <= hist.p99());
        assert!(hist.p99() <= hist.max);
    }
    // Merging a histogram set with itself doubles counts, keeps extrema.
    let mut doubled = ProfileHistograms::default();
    doubled.merge(&h);
    doubled.merge(&h);
    assert_eq!(doubled.message_words.count, 2 * h.message_words.count);
    assert_eq!(doubled.message_words.max, h.message_words.max);
}

/// Drift + straggler reports render without panicking and carry sane data
/// for a q=3 scheduled run.
#[test]
fn drift_and_straggler_reports() {
    let (_, traces, _) = traced_run(3, Mode::Scheduled);
    let (rep, drift) = replay_with_drift(&traces, AlphaBetaModel::bandwidth_only()).unwrap();
    assert!(rep.makespan_ns > 0.0);
    assert!(!drift.is_empty());
    for d in &drift {
        assert!(d.measured_ns > 0.0, "phase {} has no measured time", d.phase);
    }
    let spans = symtensor_obs::spans(&traces);
    let stragglers = StragglerReport::from_spans(&spans, traces.len(), 3);
    assert!(!stragglers.phases.is_empty());
    for p in &stragglers.phases {
        assert!(p.lambda >= 1.0, "λ = max/mean must be ≥ 1, got {}", p.lambda);
    }
    let rendered = stragglers.render();
    assert!(rendered.contains("λ"));
    let table = CriticalPath::extract(&rep).render_attribution();
    assert!(table.contains("rank"));
}
