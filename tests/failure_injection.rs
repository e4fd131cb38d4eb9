//! Failure-injection tests: the simulated machine must surface schedule
//! mismatches, missing messages and malformed inputs as errors — never as
//! silent hangs or wrong answers.

use std::time::Duration;
use symtensor_mpsim::{CommError, Universe};
use symtensor_parallel::{
    parallel_sttsv, serve, Mode, ServeConfig, ServeError, ServeRequest, TetraPartition,
};
use symtensor_steiner::{spherical, sqs8, SteinerSystem};

#[test]
fn mismatched_schedule_surfaces_as_timeout() {
    // Rank 1 expects a message rank 0 never sends.
    let universe = Universe::new(3)
        .with_recv_timeout(Duration::from_millis(40))
        .with_poll_interval(Duration::from_millis(2));
    let (results, _) = universe.run(|comm| {
        if comm.rank() == 1 {
            match comm.recv(0, 77) {
                Err(CommError::Timeout { rank, from, tag }) => (rank, from, tag),
                other => panic!("expected timeout, got {other:?}"),
            }
        } else {
            (0, 0, 0)
        }
    });
    assert_eq!(results[1], (1, 0, 77));
}

#[test]
fn collective_with_partial_participation_times_out() {
    // Rank 2 skips the all-gather: *every* surviving participant must
    // observe the failure — the first timeout trips the shared abort
    // flag, so nobody blocks out the full timeout on a dead peer.
    let universe = Universe::new(3)
        .with_recv_timeout(Duration::from_millis(60))
        .with_poll_interval(Duration::from_millis(2));
    let (results, _) = universe.run(|comm| {
        if comm.rank() == 2 {
            true // deserts the collective
        } else {
            comm.all_gather(vec![1.0]).is_err()
        }
    });
    assert!(results[0], "rank 0 must observe the deserted collective");
    assert!(results[1], "rank 1 must observe the deserted collective");
}

#[test]
fn deserted_all_to_all_errors_on_every_survivor() {
    // Same desertion, harder collective: all_to_all_v has P-1 rounds and
    // each survivor only talks to the deserter in one of them. Fail-fast
    // propagation must still bring everyone down within one abort poll.
    let universe = Universe::new(4)
        .with_recv_timeout(Duration::from_millis(80))
        .with_poll_interval(Duration::from_millis(2));
    let (results, _) = universe.run(|comm| {
        if comm.rank() == 3 {
            true
        } else {
            let chunks: Vec<Vec<f64>> = (0..4).map(|d| vec![d as f64]).collect();
            comm.all_to_all_v(chunks).is_err()
        }
    });
    for (rank, observed) in results.iter().enumerate() {
        assert!(observed, "rank {rank} must observe the deserted all-to-all");
    }
}

#[test]
fn zero_batch_cap_is_a_structured_error() {
    // Regression: this used to panic inside `chunks(0)`.
    let part = TetraPartition::new(spherical(2), 30).unwrap();
    let tensor = symtensor_core::SymTensor3::zeros(30);
    let requests = vec![ServeRequest::new(0, vec![0.0; 30])];
    let err = serve(&tensor, &part, &requests, ServeConfig::new(Mode::Scheduled, 0)).unwrap_err();
    assert_eq!(err, ServeError::ZeroBatchCap);
    assert!(format!("{err}").contains("batch capacity"));
}

#[test]
fn wrong_length_x_panics() {
    let part = TetraPartition::new(spherical(2), 30).unwrap();
    let tensor = symtensor_core::SymTensor3::zeros(30);
    let result = std::panic::catch_unwind(|| {
        parallel_sttsv(&tensor, &part, &vec![0.0; 29], Mode::Scheduled)
    });
    assert!(result.is_err());
}

#[test]
fn wrong_tensor_dimension_panics() {
    let part = TetraPartition::new(spherical(2), 30).unwrap();
    let tensor = symtensor_core::SymTensor3::zeros(25);
    let result = std::panic::catch_unwind(|| {
        parallel_sttsv(&tensor, &part, &vec![0.0; 30], Mode::Scheduled)
    });
    assert!(result.is_err());
}

#[test]
fn corrupted_steiner_system_rejected_by_partition_verify() {
    // Swap one block for a duplicate: the partition either fails to build
    // (matching infeasible) or fails verification.
    let good = sqs8();
    let mut blocks = good.blocks().to_vec();
    blocks[0] = blocks[1].clone();
    let bad = SteinerSystem::from_blocks(8, 4, blocks);
    assert!(bad.verify().is_err());
    match TetraPartition::new(bad, 56) {
        Err(_) => {}
        Ok(part) => assert!(part.verify().is_err()),
    }
}

#[test]
fn indivisible_dimension_is_a_structured_error() {
    let err = TetraPartition::new(spherical(2), 31).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("31"), "error should name the dimension: {msg}");
}

#[test]
fn zero_tensor_runs_cleanly_through_the_whole_stack() {
    let n = 30;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let tensor = symtensor_core::SymTensor3::zeros(n);
    let x = vec![1.0; n];
    for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
        let run = parallel_sttsv(&tensor, &part, &x, mode);
        assert!(run.y.iter().all(|&v| v == 0.0));
    }
}
