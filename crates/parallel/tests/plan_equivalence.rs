//! Property tests pinning the compiled-plan STTSV to the paper's
//! invariants.
//!
//! For every `(q, n, batch, mode)` the distributed STTSV must do exactly
//! the sequential `sttsv_sym` ternary multiplications, stay within `1e-12`
//! (relative) of it, move exactly the closed-form words per rank, and give
//! the same bits for a vector whether it runs alone or inside a batch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symtensor_core::generate::random_symmetric;
use symtensor_core::seq::sttsv_sym;
use symtensor_mpsim::{CostReport, Universe};
use symtensor_parallel::blocks::{OwnedBlocks, LANES};
use symtensor_parallel::bounds::scheduled_words_per_vector;
use symtensor_parallel::{
    parallel_sttsv_multi_planned, parallel_sttsv_with, CommSchedule, Mode, RankContext, RankPlan,
    SttsvMultiRun, SttsvOptions, TetraPartition,
};
use symtensor_steiner::spherical;

const MODES: [Mode; 3] = [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse];

/// `(q, n)` pairs satisfying the partition's divisibility requirements —
/// the adversarial axis is the seed/batch/mode space around them.
fn geometry(idx: usize) -> (u64, usize) {
    [(2u64, 30usize), (2, 60), (3, 60)][idx % 3]
}

fn random_vectors(n: usize, batch: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..batch).map(|_| (0..n).map(|_| rng.gen::<f64>() - 0.5).collect()).collect()
}

/// Words rank `p` sends (and receives) per vector. Scheduled and sparse:
/// for each owned row block, its own shard to the `λ₁ − 1` other owners in
/// gather-x and every other owner's shard of its partial in reduce-y.
/// Padded: `P − 1` messages of `2⌈b/λ₁⌉` words in each phase.
fn words_per_vector(part: &TetraPartition, mode: Mode, p: usize) -> u64 {
    let (b, l1) = (part.block_size(), part.lambda1());
    match mode {
        Mode::AllToAllPadded => (2 * (part.num_procs() - 1) * 2 * b.div_ceil(l1)) as u64,
        Mode::Scheduled | Mode::AllToAllSparse => part
            .r_set(p)
            .iter()
            .map(|&i| (b + (l1 - 2) * part.shard_range(i, p).len()) as u64)
            .sum(),
    }
}

/// Asserts every rank moved exactly `batch` vectors' closed-form words, and
/// that the form is the paper's `2·scheduled_words_per_vector` whenever
/// the shards are even (`q(q+1) | b`).
fn assert_words(part: &TetraPartition, q: u64, mode: Mode, batch: u64, report: &CostReport) {
    let q = q as usize;
    for (p, cost) in report.per_rank.iter().enumerate() {
        let want = batch * words_per_vector(part, mode, p);
        assert_eq!((cost.words_sent, cost.words_recv), (want, want), "{mode:?} rank {p}");
        if mode != Mode::AllToAllPadded && part.block_size().is_multiple_of(q * (q + 1)) {
            let paper = 2 * scheduled_words_per_vector(part.dim(), q) as u64;
            assert_eq!(words_per_vector(part, mode, p), paper, "{mode:?} rank {p}");
        }
    }
}

fn run(
    tensor: &symtensor_core::SymTensor3,
    part: &TetraPartition,
    xs: &[Vec<f64>],
    mode: Mode,
) -> SttsvMultiRun {
    parallel_sttsv_with(tensor, part, xs, SttsvOptions::new(mode)).unwrap()
}

proptest! {
    // Full-universe runs spawn P threads per case; keep the case count low.
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Single-vector STTSV through `RankContext::sttsv`: exact ternary
    /// counts, 1e-12 of the sequential kernel, closed-form words, the same
    /// bits and report as the batched driver on a batch of one.
    #[test]
    fn planned_sttsv_matches_oracle_and_reconciles(
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

        let schedule = CommSchedule::build(&part);
        let (outs, report) = Universe::new(part.num_procs()).run(|comm| {
            let p = comm.rank();
            let ctx = RankContext::new(&tensor, &part, p, mode, Some(&schedule));
            ctx.sttsv(comm, &part.shards_of(p, &x))
        });
        let mut y = vec![0.0; n];
        for (p, (shards, ternary)) in outs.iter().enumerate() {
            part.place_shards(p, shards, &mut y);
            prop_assert_eq!(*ternary, part.ternary_mults(p), "rank {} ternary", p);
        }

        let batched = run(&tensor, &part, std::slice::from_ref(&x), mode);
        prop_assert_eq!(&batched.ys[0], &y, "a batch of one must give the single-vector bits");
        prop_assert_eq!(&batched.report, &report);
        assert_words(&part, q, mode, 1, &report);

        let (y_ref, ops) = sttsv_sym(&tensor, &x);
        prop_assert_eq!(
            outs.iter().map(|o| o.1).sum::<u64>(),
            ops.ternary_mults,
            "exact machine-wide ternary count"
        );
        for (i, (yp, yr)) in y.iter().zip(&y_ref).enumerate() {
            prop_assert!(
                (yp - yr).abs() < 1e-12 * (1.0 + yr.abs()),
                "y[{}]: {} vs {}", i, yp, yr
            );
        }
    }

    /// Batched STTSV gives every vector the bits of its own single-vector
    /// run and moves `B ×` the words in the same messages and rounds.
    #[test]
    fn planned_multi_is_bit_identical(
        geom in 0usize..3,
        seed in 0u64..10_000,
        mode_idx in 0usize..3,
        batch in 1usize..LANES + 2,
    ) {
        let (q, n) = geometry(geom);
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = random_symmetric(n, &mut rng);
        let xs = random_vectors(n, batch, &mut rng);
        let mode = MODES[mode_idx];

        let planned = parallel_sttsv_multi_planned(&tensor, &part, &xs, mode, 1);
        for (v, x) in xs.iter().enumerate() {
            let single = run(&tensor, &part, std::slice::from_ref(x), mode);
            prop_assert_eq!(&planned.ys[v], &single.ys[0], "batching must not change bits");
            let b = batch as u64;
            let ternary: Vec<u64> = single.ternary_per_rank.iter().map(|t| b * t).collect();
            prop_assert_eq!(&planned.ternary_per_rank, &ternary);
            for (p, (many, one)) in planned.report.per_rank.iter().zip(&single.report.per_rank).enumerate() {
                prop_assert_eq!(many.msgs_sent, one.msgs_sent, "rank {} messages", p);
                prop_assert_eq!(many.rounds, one.rounds, "rank {} rounds", p);
            }
        }
        assert_words(&part, q, mode, batch as u64, &planned.report);

        for (x, y) in xs.iter().zip(&planned.ys) {
            let (y_ref, _) = sttsv_sym(&tensor, x);
            for (i, (yp, yr)) in y.iter().zip(&y_ref).enumerate() {
                prop_assert!(
                    (yp - yr).abs() < 1e-12 * (1.0 + yr.abs()),
                    "y[{}]: {} vs {}", i, yp, yr
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// The plan's packed-arena compute is bit-identical to
    /// `OwnedBlocks::compute` on every rank, for arbitrary tensors and
    /// gathered inputs — the kernel-level reference for the plan. This
    /// holds for a single vector and for every slab of a batch one wider
    /// than the fused kernel's lane count (a full group plus a remainder).
    #[test]
    fn plan_compute_matches_owned_blocks_bitwise(
        geom in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let (q, n) = geometry(geom);
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = random_symmetric(n, &mut rng);
        let b = part.block_size();
        for rank in 0..part.num_procs() {
            let rp = part.r_set(rank);
            let owned = OwnedBlocks::extract(&tensor, &part, rank);
            let plan = RankPlan::build(&part, &owned, rank);

            // Full gathered inputs: one dense row block per owned slot.
            let batch = LANES + 1;
            let xs_full: Vec<Vec<Vec<f64>>> = (0..batch)
                .map(|_| {
                    (0..rp.len())
                        .map(|_| (0..b).map(|_| rng.gen::<f64>() - 0.5).collect())
                        .collect()
                })
                .collect();
            let row_pos = |i: usize| rp.binary_search(&i).unwrap();
            let references: Vec<(Vec<Vec<f64>>, u64)> = xs_full
                .iter()
                .map(|x_full| {
                    let mut y_ref = vec![vec![0.0; b]; rp.len()];
                    let t_ref = owned.compute(x_full, &mut y_ref, row_pos);
                    (y_ref, t_ref)
                })
                .collect();

            // Feed the same gathered state through the flat slabs (the
            // post-gather picture, bypassing the exchange): once as a
            // single vector, once as the whole batch.
            for count in [1, batch] {
                let mut ws = symtensor_parallel::PlanWorkspace::new();
                plan.ensure_capacity(&mut ws, count);
                for (v, x_full) in xs_full[..count].iter().enumerate() {
                    plan.load_full(&mut ws, v, x_full);
                }
                let t_plan = plan.compute(&mut ws, count, None);
                let t_ref: u64 = references[..count].iter().map(|r| r.1).sum();
                prop_assert_eq!(t_plan, t_ref, "rank {} batch {}: ternary counts", rank, count);
                for (v, (y_ref, _)) in references[..count].iter().enumerate() {
                    let y_plan = plan.output_slab(&ws, v);
                    for (t, row) in y_ref.iter().enumerate() {
                        prop_assert_eq!(
                            &y_plan[t * b..(t + 1) * b], row.as_slice(),
                            "rank {} batch {} slab {} row slot {}: bitwise equal",
                            rank, count, v, t
                        );
                    }
                }
            }
        }
    }
}
