//! End-to-end integration tests spanning all crates: Steiner construction →
//! tetrahedral partition → Algorithm 5 on the simulated machine → results
//! and communication counters checked against the sequential kernels and
//! the paper's closed forms.

use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor_core::generate::{random_odeco, random_symmetric};
use symtensor_core::hopm::{hopm, HopmOptions};
use symtensor_core::seq::{sttsv_naive, sttsv_sym};
use symtensor_parallel::hopm::parallel_hopm;
use symtensor_parallel::schedule::spherical_round_count;
use symtensor_parallel::{bounds, parallel_sttsv, parallel_sttsv_padded, Mode, TetraPartition};
use symtensor_steiner::{spherical, sqs8};

fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(a.len(), b.len());
    for (idx, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())), "index {idx}: {x} vs {y}");
    }
}

#[test]
fn all_modes_and_systems_match_both_sequential_algorithms() {
    let mut rng = StdRng::seed_from_u64(100);
    let configs: Vec<(symtensor_steiner::SteinerSystem, usize)> =
        vec![(spherical(2), 30), (spherical(3), 60), (sqs8(), 40)];
    for (system, n) in configs {
        let part = TetraPartition::new(system, n).unwrap();
        part.verify().unwrap();
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) as f64 * 0.01).sin()).collect();
        let (y4, _) = sttsv_sym(&tensor, &x);
        let (y3, _) = sttsv_naive(&tensor, &x);
        assert_vec_close(&y3, &y4, 1e-11);
        for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
            let run = parallel_sttsv(&tensor, &part, &x, mode);
            assert_vec_close(&run.y, &y4, 1e-10);
        }
    }
}

#[test]
fn communication_counters_match_section_7_closed_forms() {
    // q = 2: per-vector scheduled words = n·3/5 − n/10; rounds = 9.
    let n = 60;
    let q = 2usize;
    let part = TetraPartition::new(spherical(q as u64), n).unwrap();
    let mut rng = StdRng::seed_from_u64(101);
    let tensor = random_symmetric(n, &mut rng);
    let x = vec![1.0; n];

    let sched = parallel_sttsv(&tensor, &part, &x, Mode::Scheduled);
    let per_vec = bounds::scheduled_words_per_vector(n, q) as u64;
    for cost in &sched.report.per_rank {
        assert_eq!(cost.words_sent, 2 * per_vec);
        assert_eq!(cost.words_recv, 2 * per_vec);
        assert_eq!(cost.rounds, 2 * spherical_round_count(q) as u64);
        // Latency: one message per round.
        assert_eq!(cost.msgs_sent, cost.rounds);
    }

    let a2a = parallel_sttsv(&tensor, &part, &x, Mode::AllToAllPadded);
    let total = bounds::alltoall_words_total(n, q) as u64;
    for cost in &a2a.report.per_rank {
        assert_eq!(cost.words_sent, total);
        // P−1 rounds per all-to-all, two vector phases.
        assert_eq!(cost.rounds, 2 * (part.num_procs() as u64 - 1));
    }

    // No tensor words ever move: total traffic is exactly the vector traffic.
    let expected_total: u64 = (0..part.num_procs() as u64).map(|_| 2 * per_vec).sum();
    assert_eq!(sched.report.total_words_sent(), expected_total);
}

#[test]
fn scheduled_never_below_lower_bound_and_close_above() {
    for (q, scale) in [(2usize, 1usize), (2, 3), (3, 1), (3, 2)] {
        let n = (q * q + 1) * q * (q + 1) * scale;
        let p = bounds::spherical_procs(q);
        let part = TetraPartition::new(spherical(q as u64), n).unwrap();
        let mut rng = StdRng::seed_from_u64(102);
        let tensor = random_symmetric(n, &mut rng);
        let x = vec![0.5; n];
        let run = parallel_sttsv(&tensor, &part, &x, Mode::Scheduled);
        let lb = bounds::lower_bound_words(n, p);
        let measured = run.report.bandwidth_cost() as f64;
        assert!(measured >= lb * 0.999, "q={q} n={n}: {measured} < bound {lb}");
        assert!(
            measured <= lb * (1.0 + 3.0 / q as f64),
            "q={q} n={n}: {measured} too far above bound {lb}"
        );
    }
}

#[test]
fn padded_driver_is_equivalent_for_awkward_dimensions() {
    let mut rng = StdRng::seed_from_u64(103);
    for n in [7usize, 23, 61, 97] {
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5).recip()).collect();
        let (y_ref, _) = sttsv_sym(&tensor, &x);
        let run = parallel_sttsv_padded(&tensor, spherical(2), &x, Mode::AllToAllSparse);
        assert_eq!(run.y.len(), n);
        assert_vec_close(&run.y, &y_ref, 1e-10);
    }
}

#[test]
fn hopm_pipeline_agrees_with_sequential_and_planted_truth() {
    let n = 60;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let mut rng = StdRng::seed_from_u64(104);
    let odeco = random_odeco(n, 4, &mut rng);
    let mut x0 = odeco.vectors[0].clone();
    x0[5] -= 0.07;
    let opts = HopmOptions { tol: 1e-12, max_iters: 300 };
    let seq = hopm(&odeco.tensor, &x0, opts);
    for mode in [Mode::Scheduled, Mode::AllToAllPadded] {
        let (par, _) = parallel_hopm(&odeco.tensor, &part, &x0, opts, mode);
        assert!(par.converged);
        assert!((par.lambda - seq.lambda).abs() < 1e-8);
        assert!((par.lambda - odeco.eigenvalues[0]).abs() < 1e-7);
    }
}

#[test]
fn deterministic_across_runs() {
    // The simulated machine fixes reduction orders, so repeated runs are
    // bitwise identical (unlike real MPI).
    let n = 60;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let mut rng = StdRng::seed_from_u64(105);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    let run1 = parallel_sttsv(&tensor, &part, &x, Mode::Scheduled);
    let run2 = parallel_sttsv(&tensor, &part, &x, Mode::Scheduled);
    assert_eq!(run1.y, run2.y);
    assert_eq!(run1.report, run2.report);
}

#[test]
fn ternary_work_is_conserved_and_balanced() {
    let n = 120;
    let part = TetraPartition::new(spherical(3), n).unwrap();
    let mut rng = StdRng::seed_from_u64(106);
    let tensor = random_symmetric(n, &mut rng);
    let x = vec![1.0; n];
    let run = parallel_sttsv(&tensor, &part, &x, Mode::AllToAllSparse);
    let total: u64 = run.ternary_per_rank.iter().sum();
    let n64 = n as u64;
    assert_eq!(total, n64 * n64 * (n64 + 1) / 2);
    let max = *run.ternary_per_rank.iter().max().unwrap() as f64;
    let ideal = bounds::comp_cost_leading(n, part.num_procs());
    assert!(max / ideal < 1.2, "imbalance {max} / {ideal}");
}

#[test]
fn executed_message_sequence_matches_the_schedule_exactly() {
    // Trace every send/recv of a scheduled-mode run and check it is
    // exactly the edge-colored schedule, twice (x phase then y phase),
    // with per-round tags in order — the executable form of Theorem 7.2.
    use symtensor_mpsim::{CommEventKind, Universe};
    use symtensor_parallel::algorithm5::RankContext;
    use symtensor_parallel::CommSchedule;

    let n = 60;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let schedule = CommSchedule::build(&part);
    let mut rng = StdRng::seed_from_u64(400);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();

    let (_, _, traces) = Universe::new(part.num_procs()).run_traced(|comm| {
        let p = comm.rank();
        let ctx = RankContext::new(&tensor, &part, p, Mode::Scheduled, Some(&schedule));
        let my_shards = part.shards_of(p, &x);
        let _ = ctx.sttsv(comm, &my_shards);
    });

    let rounds = schedule.num_rounds();
    for (rank, trace) in traces.iter().enumerate() {
        // Each phase: one send and one recv per round (every round of a
        // regular schedule covers every rank in both roles).
        let sends: Vec<_> = trace
            .iter()
            .filter_map(|e| match e.kind {
                CommEventKind::Send { dst, tag, .. } => Some((dst, tag)),
                _ => None,
            })
            .collect();
        let recvs: Vec<_> = trace
            .iter()
            .filter_map(|e| match e.kind {
                CommEventKind::Recv { src, tag, .. } => Some((src, tag)),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 2 * rounds, "rank {rank} send count");
        assert_eq!(recvs.len(), 2 * rounds, "rank {rank} recv count");
        for phase in 0..2 {
            for round in 0..rounds {
                let act = schedule.actions(rank)[round];
                let (dst, _) = sends[phase * rounds + round];
                assert_eq!(Some(dst), act.send_to, "rank {rank} phase {phase} round {round}");
                let (src, _) = recvs[phase * rounds + round];
                assert_eq!(Some(src), act.recv_from, "rank {rank} phase {phase} round {round}");
            }
        }
    }
}

#[test]
fn q4_execution_matches_closed_forms() {
    // A larger real execution: P = 68 ranks, n = 340 (b = λ₁ = 20).
    let q = 4usize;
    let n = 17 * 20;
    let part = TetraPartition::new(spherical(q as u64), n).unwrap();
    let mut rng = StdRng::seed_from_u64(401);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 * 0.2).cos()).collect();
    let run = parallel_sttsv(&tensor, &part, &x, Mode::Scheduled);
    let (y_ref, _) = sttsv_sym(&tensor, &x);
    for (i, (got, want)) in run.y.iter().zip(&y_ref).enumerate() {
        assert!((got - want).abs() < 1e-8 * (1.0 + want.abs()), "y[{i}]");
    }
    let expect = 2 * bounds::scheduled_words_per_vector(n, q) as u64;
    for cost in &run.report.per_rank {
        assert_eq!(cost.words_sent, expect);
        assert_eq!(cost.rounds, 2 * spherical_round_count(q) as u64);
    }
}
