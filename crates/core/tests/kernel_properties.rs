//! Property tests for the local STTSV kernel family: every variant — the
//! seed per-point reference, the flat-slab walk, the blocked kernel and the
//! batched multi-vector path — must agree on adversarially drawn
//! `(n, b, batch)` and report identical paper op counts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor_core::generate::random_symmetric;
use symtensor_core::seq::{
    sttsv_naive, sttsv_sym, sttsv_sym_blocked, sttsv_sym_multi, sttsv_sym_ref,
};

fn workload(n: usize, seed: u64) -> (symtensor_core::SymTensor3, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tensor = random_symmetric(n, &mut rng);
    let x: Vec<f64> =
        (0..n).map(|i| ((i * 13 + 7) as f64 * 0.011 + (seed % 97) as f64 * 0.003).sin()).collect();
    (tensor, x)
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Flat-slab and blocked kernels agree with the per-point reference to
    /// 1e-12 relative, with identical ternary-mult counts equal to the
    /// paper's n²(n+1)/2, on adversarial (n, b).
    #[test]
    fn kernel_family_agrees_on_adversarial_shapes(
        n in 1usize..48,
        b in 1usize..24,
        seed in 0u64..1_000_000,
    ) {
        let (tensor, x) = workload(n, seed);
        let (y_ref, c_ref) = sttsv_sym_ref(&tensor, &x);
        let (y_flat, c_flat) = sttsv_sym(&tensor, &x);
        let (y_blk, c_blk) = sttsv_sym_blocked(&tensor, &x, b);

        let n64 = n as u64;
        prop_assert_eq!(c_ref.ternary_mults, n64 * n64 * (n64 + 1) / 2);
        prop_assert_eq!(c_flat.ternary_mults, c_ref.ternary_mults);
        prop_assert_eq!(c_blk.ternary_mults, c_ref.ternary_mults);
        prop_assert_eq!(c_flat.points, c_ref.points);
        prop_assert_eq!(c_blk.points, c_ref.points);

        for i in 0..n {
            prop_assert!(close(y_ref[i], y_flat[i], 1e-12), "flat y[{}]", i);
            prop_assert!(close(y_ref[i], y_blk[i], 1e-12), "blocked y[{}]", i);
        }
    }

    /// The naive n³ kernel is the ground truth the symmetric family must
    /// reproduce (looser tolerance: completely different summation order).
    #[test]
    fn symmetric_kernels_match_naive(n in 1usize..32, seed in 0u64..1_000_000) {
        let (tensor, x) = workload(n, seed);
        let (y_naive, c_naive) = sttsv_naive(&tensor, &x);
        let (y_flat, _) = sttsv_sym(&tensor, &x);
        let n64 = n as u64;
        prop_assert_eq!(c_naive.ternary_mults, n64 * n64 * n64);
        for i in 0..n {
            prop_assert!(close(y_naive[i], y_flat[i], 1e-9), "y[{}]", i);
        }
    }

    /// The batched kernel is bit-identical per vector to the single-vector
    /// flat-slab kernel for any batch size, and counts the batch's work.
    #[test]
    fn batched_kernel_is_bitwise_per_vector(
        n in 1usize..40,
        batch in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let (tensor, _) = workload(n, seed);
        let xs: Vec<Vec<f64>> = (0..batch)
            .map(|v| (0..n).map(|i| ((i * 5 + v * 17 + 1) as f64 * 0.019).cos()).collect())
            .collect();
        let (ys, count) = sttsv_sym_multi(&tensor, &xs);
        prop_assert_eq!(ys.len(), batch);
        let mut expect_mults = 0;
        for (v, x) in xs.iter().enumerate() {
            let (y_one, c_one) = sttsv_sym(&tensor, x);
            expect_mults += c_one.ternary_mults;
            for i in 0..n {
                prop_assert_eq!(ys[v][i].to_bits(), y_one[i].to_bits(), "vector {} y[{}]", v, i);
            }
        }
        prop_assert_eq!(count.ternary_mults, expect_mults);
    }
}
