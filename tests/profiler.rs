//! The profiling layer's measured figures: latency histograms from
//! send/recv matching, bit-level agreement of traced runs with the serial
//! kernel, and reconciliation of the traced run's exact word counts with
//! the paper's closed-form schedule cost — in the library and at the
//! `trace` binary's command line.

use std::process::Command;

use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor_core::generate::random_symmetric;
use symtensor_mpsim::{CommEvent, CostReport};
use symtensor_obs::ProfileHistograms;
use symtensor_parallel::{bounds, parallel_sttsv_with, Mode, SttsvOptions, TetraPartition};
use symtensor_steiner::spherical;

fn traced_run(q: usize, mode: Mode) -> (Vec<f64>, Vec<Vec<CommEvent>>, CostReport, usize) {
    let n = (q * q + 1) * q * (q + 1);
    let part = TetraPartition::new(spherical(q as u64), n).unwrap();
    let mut rng = StdRng::seed_from_u64(99 + q as u64);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin()).collect();
    let opts = SttsvOptions { trace: true, ..SttsvOptions::new(mode) };
    let mut run = parallel_sttsv_with(&tensor, &part, &[x], opts).unwrap();
    (run.ys.remove(0), run.traces, run.report, n)
}

/// The traced scheduled run's bandwidth cost reconciles *exactly* (±0
/// words) with twice the closed-form per-vector word count
/// `scheduled_words_per_vector` — the factor 2 covers the gather-x and
/// reduce-y phases, each of which moves exactly W words per rank.
#[test]
fn scheduled_bandwidth_cost_reconciles_with_closed_form() {
    for q in [2usize, 3] {
        let (_, _, report, n) = traced_run(q, Mode::Scheduled);
        let w2 = 2 * bounds::scheduled_words_per_vector(n, q) as u64;
        assert_eq!(report.bandwidth_cost(), w2, "q={q}: bandwidth cost must equal 2·W_sched");
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
    let (y, _, _, _) = traced_run(q, Mode::Scheduled);
    for (a, b) in y.iter().zip(serial.iter()) {
        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
    }
}

/// Latency histograms built from a real traced run: every send is matched,
/// recv-wait and round-step histograms are populated, and quantiles are
/// ordered.
#[test]
fn profile_histograms_from_scheduled_run() {
    let (_, traces, _, _) = traced_run(3, Mode::Scheduled);
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

/// The `trace` binary's default report at q = 2: exits 0, prints the exact
/// `2·W_sched` reconciliation and the measured latency quantiles.
#[test]
fn trace_binary_reconciles_and_reports_measured_latency() {
    let run = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["--q", "2"])
        .output()
        .expect("trace binary failed to spawn");
    let out = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "trace --q 2 failed:\n{out}{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // Default scale 1: n = (q²+1)·q·(q+1) = 30.
    let w2 = 2 * bounds::scheduled_words_per_vector(30, 2);
    assert!(
        out.contains(&format!("bandwidth cost reconciles with the closed form 2·W_sched = {w2} ✓")),
        "missing the 2·W_sched reconciliation line:\n{out}"
    );
    let isa = symtensor_parallel::blocks::kernel_isa();
    assert!(out.contains(&format!("batch kernel: {isa}\n")), "missing the kernel line:\n{out}");
    assert!(out.contains("round-step ns:"), "missing round-step quantiles:\n{out}");
    assert!(out.contains("recv transit ns:"), "missing recv-transit quantiles:\n{out}");
}

/// The model-only flags are gone: each is a usage error (exit 2).
#[test]
fn trace_binary_rejects_the_removed_model_flags() {
    for args in [&["--replay", "1,1,1"][..], &["--critical-path"][..]] {
        let run = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(args)
            .output()
            .expect("trace binary failed to spawn");
        assert_eq!(run.status.code(), Some(2), "{args:?} must be a usage error");
        let err = String::from_utf8_lossy(&run.stderr);
        assert!(err.contains(&format!("unknown argument '{}'", args[0])), "{args:?}: {err}");
    }
}
