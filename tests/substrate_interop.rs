//! Cross-substrate integration: persistence → scatter → repeated distributed
//! solves, exercising `core::io`, `parallel::scatter`, `RankContext` reuse
//! and the 2-D triangle scheme side by side with the 3-D one.

use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor_core::generate::{random_odeco, random_symmetric};
use symtensor_core::io::{read_tensor, write_tensor};
use symtensor_core::seq::sttsv_sym;
use symtensor_core::symmat::{random_symmetric_matrix, symv_sym};
use symtensor_mpsim::Universe;
use symtensor_parallel::algorithm5::RankContext;
use symtensor_parallel::scatter::scatter_from_root;
use symtensor_parallel::triangle::{parallel_symv, TrianglePartition};
use symtensor_parallel::{Mode, TetraPartition};
use symtensor_steiner::spherical;

#[test]
fn persisted_tensor_runs_identically_after_reload() {
    let n = 30;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let mut rng = StdRng::seed_from_u64(300);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();

    let mut buf = Vec::new();
    write_tensor(&tensor, &mut buf).unwrap();
    let reloaded = read_tensor(buf.as_slice()).unwrap();

    let run_a = symtensor_parallel::parallel_sttsv(&tensor, &part, &x, Mode::Scheduled);
    let run_b = symtensor_parallel::parallel_sttsv(&reloaded, &part, &x, Mode::Scheduled);
    assert_eq!(run_a.y, run_b.y, "bit-identical after a save/load round trip");
    assert_eq!(run_a.report, run_b.report);
}

#[test]
fn scattered_blocks_drive_repeated_sttsv_without_reextraction() {
    // The production pattern: scatter once, then run many iterations on the
    // scattered data (the context is reused; only vectors move).
    let n = 30;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let mut rng = StdRng::seed_from_u64(301);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();

    let (scattered, _setup_cost) = scatter_from_root(&tensor, &part, &x);
    let iterations = 3;

    let (rank_results, report) = Universe::new(part.num_procs()).run(|comm| {
        let p = comm.rank();
        let (owned, shards) = scattered[p].clone();
        let ctx = RankContext::from_parts(&part, owned, p, Mode::AllToAllSparse, None);
        // Iterate STTSV on the same context; feed y back in as the next x.
        let mut current = shards;
        for _ in 0..iterations {
            let (y, _) = ctx.sttsv(comm, &current);
            current = y;
        }
        current
    });

    // Reference: the same iterated map sequentially.
    let mut reference = x.clone();
    for _ in 0..iterations {
        let (y, _) = sttsv_sym(&tensor, &reference);
        reference = y;
    }
    let mut assembled = vec![0.0; n];
    for (p, shards) in rank_results.iter().enumerate() {
        part.place_shards(p, shards, &mut assembled);
    }
    for i in 0..n {
        assert!(
            (assembled[i] - reference[i]).abs() < 1e-7 * (1.0 + reference[i].abs()),
            "y[{i}]: {} vs {}",
            assembled[i],
            reference[i]
        );
    }
    // Per-iteration comm is the steady-state cost (no tensor traffic).
    let per_vec = symtensor_parallel::bounds::scheduled_words_per_vector(n, 2) as u64;
    for cost in &report.per_rank {
        assert_eq!(cost.words_sent, iterations as u64 * 2 * per_vec);
    }
}

#[test]
fn two_d_and_three_d_schemes_share_the_cost_framework() {
    // Same machine, same counters: SYMV on a plane partition and STTSV on
    // a spherical partition, both verified against their sequential kernels.
    let mut rng = StdRng::seed_from_u64(302);

    let q2d = 2u64;
    let n2d = 7 * 3 * 2;
    let tri = TrianglePartition::new(q2d, n2d).unwrap();
    let matrix = random_symmetric_matrix(n2d, &mut rng);
    let x2: Vec<f64> = (0..n2d).map(|i| (i as f64 * 0.4).cos()).collect();
    let symv = parallel_symv(&matrix, &tri, &x2);
    let (y2_ref, _) = symv_sym(&matrix, &x2);
    for (got, want) in symv.y.iter().zip(&y2_ref) {
        assert!((got - want).abs() < 1e-10 * (1.0 + want.abs()));
    }

    let n3d = 30;
    let tet = TetraPartition::new(spherical(2), n3d).unwrap();
    let odeco = random_odeco(n3d, 2, &mut rng);
    let run =
        symtensor_parallel::parallel_sttsv(&odeco.tensor, &tet, &odeco.vectors[0], Mode::Scheduled);
    // STTSV of an eigenvector gives λ·v.
    for (i, &v) in odeco.vectors[0].iter().enumerate() {
        assert!((run.y[i] - odeco.eigenvalues[0] * v).abs() < 1e-9);
    }
    // Both reports count the same machine-independent quantity.
    assert!(symv.report.bandwidth_cost() > 0);
    assert!(run.report.bandwidth_cost() > 0);
}
