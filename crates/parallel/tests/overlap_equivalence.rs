//! Property tests pinning the overlapped exchange to the barrier plan path.
//!
//! The contract of `RankContext::sttsv_overlapped` is *bit*-equivalence with
//! the barrier exchange: for every adversarial `(q, n, threads, batch,
//! mode)` the overlapped pipeline must reproduce the same y bits, the same
//! ternary counts, the same per-rank [`CostReport`] and the same rank-to-rank
//! communication matrix — only event *timing* may differ. A chaos case pins
//! the failure path: a dropped gather message fails fast with wire-exact
//! accounting instead of hanging out the full timeout.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symtensor_core::generate::random_symmetric;
use symtensor_core::seq::sttsv_sym;
use symtensor_mpsim::{CommEvent, CommEventKind, FaultPlan, InjectedFault, Universe};
use symtensor_parallel::{
    parallel_sttsv_with, CommSchedule, Mode, RankContext, SttsvMultiRun, SttsvOptions,
    TetraPartition,
};
use symtensor_steiner::spherical;

const MODES: [Mode; 3] = [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse];

/// `(q, n)` pairs satisfying the partition's divisibility requirements —
/// the adversarial axis is the seed/threads/batch/mode space around them.
fn geometry(idx: usize) -> (u64, usize) {
    [(2u64, 30usize), (2, 60), (3, 60)][idx % 3]
}

/// The barrier and the overlapped run of `xs` under `opts`.
fn barrier_and_overlapped(
    tensor: &symtensor_core::SymTensor3,
    part: &TetraPartition,
    xs: &[Vec<f64>],
    opts: SttsvOptions,
) -> (SttsvMultiRun, SttsvMultiRun) {
    let run = |overlapped| {
        parallel_sttsv_with(tensor, part, xs, SttsvOptions { overlapped, ..opts }).unwrap()
    };
    (run(false), run(true))
}

/// Folds per-rank traces into a `(src, dst) -> words` matrix — the same
/// aggregation `symtensor-obs` renders, computed here without the extra
/// dependency edge.
fn comm_matrix(traces: &[Vec<CommEvent>]) -> BTreeMap<(usize, usize), u64> {
    let mut matrix = BTreeMap::new();
    for (src, trace) in traces.iter().enumerate() {
        for ev in trace {
            if let CommEventKind::Send { dst, words, .. } = ev.kind {
                *matrix.entry((src, dst)).or_insert(0) += words;
            }
        }
    }
    matrix
}

proptest! {
    // Full-universe runs spawn P threads per case; keep the case count low.
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Overlapped single-vector STTSV is bit-identical to the barrier
    /// planned driver — y bits, ternary counts, cost report — and within
    /// 1e-12 of the sequential kernel.
    #[test]
    fn overlapped_sttsv_is_bit_identical_to_planned(
        geom in 0usize..3,
        seed in 0u64..10_000,
        mode_idx in 0usize..3,
        threads in 1usize..4,
    ) {
        let (q, n) = geometry(geom);
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mode = MODES[mode_idx];

        let xs = std::slice::from_ref(&x);
        let opts = SttsvOptions { threads, ..SttsvOptions::new(mode) };
        let (barrier, overlapped) = barrier_and_overlapped(&tensor, &part, xs, opts);
        prop_assert_eq!(&overlapped.ys, &barrier.ys, "overlap must be bit-identical");
        prop_assert_eq!(&overlapped.ternary_per_rank, &barrier.ternary_per_rank);
        prop_assert_eq!(&overlapped.report, &barrier.report);

        let (y_ref, ops) = sttsv_sym(&tensor, &x);
        prop_assert_eq!(
            overlapped.ternary_per_rank.iter().sum::<u64>(),
            ops.ternary_mults,
            "exact machine-wide ternary count"
        );
        for (i, (yo, yr)) in overlapped.ys[0].iter().zip(&y_ref).enumerate() {
            prop_assert!(
                (yo - yr).abs() < 1e-12 * (1.0 + yr.abs()),
                "y[{}]: {} vs {}", i, yo, yr
            );
        }
    }

    /// The overlapped wire picture matches the barrier path message for
    /// message: identical rank-to-rank word matrices and identical per-rank
    /// multisets of `(peer, tag, words)` in both directions. Only arrival
    /// *order* — the thing the overlap exploits — may differ.
    #[test]
    fn overlapped_comm_matrix_matches_barrier(
        geom in 0usize..3,
        seed in 0u64..10_000,
        mode_idx in 0usize..3,
    ) {
        let (q, n) = geometry(geom);
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mode = MODES[mode_idx];

        let opts = SttsvOptions { trace: true, ..SttsvOptions::new(mode) };
        let (barrier, overlapped) =
            barrier_and_overlapped(&tensor, &part, std::slice::from_ref(&x), opts);
        prop_assert_eq!(&overlapped.ys, &barrier.ys);
        let (barrier_traces, overlap_traces) = (barrier.traces, overlapped.traces);
        prop_assert_eq!(
            comm_matrix(&overlap_traces),
            comm_matrix(&barrier_traces),
            "rank-to-rank word matrix must be unchanged"
        );
        // Stronger than the matrix: per rank, the multiset of messages on
        // the wire (tags included) is identical in both directions.
        for (rank, (ot, bt)) in overlap_traces.iter().zip(&barrier_traces).enumerate() {
            let msgs = |trace: &[CommEvent]| {
                let mut sends = Vec::new();
                let mut recvs = Vec::new();
                for ev in trace {
                    match ev.kind {
                        CommEventKind::Send { dst, tag, words } => sends.push((dst, tag, words)),
                        CommEventKind::Recv { src, tag, words } => recvs.push((src, tag, words)),
                        _ => {}
                    }
                }
                sends.sort_unstable();
                recvs.sort_unstable();
                (sends, recvs)
            };
            prop_assert_eq!(msgs(ot), msgs(bt), "rank {} wire multiset", rank);
        }
    }

    /// Overlapped batched STTSV is bit-identical to the barrier batched
    /// driver for every batch size, and deterministic in the thread count.
    #[test]
    fn overlapped_multi_is_bit_identical_and_thread_deterministic(
        geom in 0usize..3,
        seed in 0u64..10_000,
        mode_idx in 0usize..3,
        threads in 1usize..4,
        batch in 1usize..5,
    ) {
        let (q, n) = geometry(geom);
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = random_symmetric(n, &mut rng);
        let xs: Vec<Vec<f64>> =
            (0..batch).map(|_| (0..n).map(|_| rng.gen::<f64>() - 0.5).collect()).collect();
        let mode = MODES[mode_idx];

        let opts = SttsvOptions { threads, ..SttsvOptions::new(mode) };
        let (barrier, overlapped) = barrier_and_overlapped(&tensor, &part, &xs, opts);
        prop_assert_eq!(&overlapped.ys, &barrier.ys, "batched overlap must be bit-identical");
        prop_assert_eq!(&overlapped.ternary_per_rank, &barrier.ternary_per_rank);
        prop_assert_eq!(&overlapped.report, &barrier.report);

        // The chunk tree is fixed by the block count, not the worker count.
        if threads > 1 {
            let opts = SttsvOptions { threads: threads + 1, overlapped: true, ..opts };
            let other = parallel_sttsv_with(&tensor, &part, &xs, opts).unwrap();
            prop_assert_eq!(&other.ys, &overlapped.ys, "thread count must not change bits");
        }
    }
}

/// A dropped gather-x message fails the overlapped run fast — attributed to
/// an exchange phase on a starved rank, with every surviving rank released
/// by the abort flag well inside the receive timeout — and the dropped
/// message stays off the cost counters (wire-exact failure accounting).
#[test]
fn overlapped_gather_drop_fails_fast_with_exact_accounting() {
    let q = 2u64;
    let n = 30;
    let part = TetraPartition::new(spherical(q), n).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    let schedule = CommSchedule::build(&part);

    let part_ref = &part;
    let tensor_ref = &tensor;
    let x_ref = &x;
    let schedule_ref = &schedule;
    let rank_main = move |comm: &symtensor_mpsim::Comm| {
        let p = comm.rank();
        let ctx = RankContext::new(tensor_ref, part_ref, p, Mode::Scheduled, Some(schedule_ref));
        ctx.sttsv_overlapped(comm, &part_ref.shards_of(p, x_ref))
    };

    // Rank 0's first send is a gather-x message; dropping it starves one
    // receiver, whose timeout panic must release everyone else via the
    // abort flag (fail fast), not leave them to block out their own waits.
    let started = std::time::Instant::now();
    let failure = Universe::new(part.num_procs())
        .with_faults(FaultPlan::seeded(7).drop_nth_send(0, 0))
        .with_recv_timeout(Duration::from_millis(200))
        .with_poll_interval(Duration::from_millis(2))
        .try_run_traced(rank_main)
        .expect_err("a dropped gather message must fail the run");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "fail-fast must not serialize per-rank timeouts"
    );
    // The starved gather receiver and the reduce receivers downstream of it
    // all hit their timeouts at ~the same instant; whichever panic trips the
    // abort flag first wins root-cause attribution. Either attribution is a
    // legitimate consequence of the single dropped message — what matters is
    // that it lands on an exchange phase with the overlapped panic text.
    assert!(
        matches!(failure.phase, Some("gather-x") | Some("reduce-y")),
        "failure attributed to an exchange phase, got {:?}",
        failure.phase
    );
    assert!(
        failure.message.contains("overlapped gather failed")
            || failure.message.contains("overlapped reduce failed"),
        "unexpected panic message: {}",
        failure.message
    );

    // The drop is recorded as an injected fault on rank 0 …
    let drops: Vec<_> = failure.traces[0]
        .iter()
        .filter(|e| matches!(e.kind, CommEventKind::Fault { fault: InjectedFault::Drop, .. }))
        .collect();
    assert_eq!(drops.len(), 1, "exactly one injected drop");
    // … and never charged to the counters: sent == received + in-flight at
    // abort, and the dropped words appear in neither.
    let trace_sent: u64 = failure
        .traces
        .iter()
        .flatten()
        .map(|e| match e.kind {
            CommEventKind::Send { words, .. } => words,
            _ => 0,
        })
        .sum();
    assert_eq!(
        failure.report.total_words_sent(),
        trace_sent,
        "counters and trace agree on what entered the network"
    );
    assert!(
        failure.report.total_words_recv() <= failure.report.total_words_sent(),
        "nothing received that was never sent"
    );
}
