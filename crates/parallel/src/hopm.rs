//! The higher-order power method on distributed vectors, with the
//! communication-optimal STTSV kernel inside (Algorithm 1 of the paper,
//! whose per-iteration bottleneck is exactly the computation this library
//! optimizes).
//!
//! `x` and `y` stay distributed in the tetrahedral shard layout across
//! iterations; each iteration costs one Algorithm-5 STTSV plus one small
//! all-reduce. That all-reduce carries the pass's norm and Rayleigh
//! quotient together with the previous pass's step, so the convergence
//! test lags one pass behind: a converged solve runs one STTSV past the
//! pass whose step fell under the tolerance. One all-reduce normalizes the
//! start vector and one more, after the loop, reduces the last pass's
//! residual.

use crate::algorithm5::{check_dims, Machine, Mode, RankContext};
use crate::partition::TetraPartition;
use symtensor_core::hopm::{HopmOptions, HopmResult};
use symtensor_core::seq::OpCount;
use symtensor_core::SymTensor3;
use symtensor_mpsim::{Comm, CostReport, Universe};

/// Runs HOPM on the simulated machine. Returns the result (assembled on the
/// driver) plus the full communication report.
pub fn parallel_hopm(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x0: &[f64],
    opts: HopmOptions,
    mode: Mode,
) -> (HopmResult, CostReport) {
    parallel_shifted_hopm(tensor, part, x0, 0.0, opts, mode)
}

/// Shifted symmetric HOPM (S-HOPM) on the simulated machine: iterates with
/// `𝓐 ×₂ x ×₃ x + α·x`, which is guaranteed monotone for a large enough
/// shift `α` even on indefinite tensors. `α = 0` recovers plain HOPM.
pub fn parallel_shifted_hopm(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x0: &[f64],
    alpha: f64,
    opts: HopmOptions,
    mode: Mode,
) -> (HopmResult, CostReport) {
    parallel_shifted_hopm_planned(tensor, part, x0, alpha, opts, mode, 1)
}

/// [`parallel_shifted_hopm`] with a node-level worker pool of `threads`
/// threads per rank for the local-compute phase of every STTSV iteration
/// (see [`RankContext::with_pool`]); `threads ≤ 1` runs the sequential
/// kernels. Each rank compiles its owned blocks into a contiguous arena
/// once, before the first iteration, and every later STTSV runs
/// allocation-free over preallocated flat slabs. The distributed algorithm
/// and its communication costs do not depend on `threads`, and the pooled
/// kernels are bit-identical across thread counts, so the iteration
/// trajectory depends on `threads` only through the pooled-vs-sequential
/// reduction order. Panics with the
/// [`InputError`](crate::InputError) on a dimension mismatch.
///
/// `iters` counts the STTSVs done. Each pass tests the step of the pass
/// before it, so a converged solve returns the iterate of one pass after
/// the step that fell under `opts.tol`; the returned `lambda` and
/// `residual` belong to that last pass's input. The trajectory does not
/// depend on `opts.tol`: a solve capped at the same `iters` returns the
/// same bits.
#[allow(clippy::too_many_arguments)]
pub fn parallel_shifted_hopm_planned(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x0: &[f64],
    alpha: f64,
    opts: HopmOptions,
    mode: Mode,
    threads: usize,
) -> (HopmResult, CostReport) {
    let n = part.dim();
    check_dims(n, tensor, [x0]).unwrap_or_else(|e| panic!("{e}"));
    let machine = Machine::new(tensor, part, mode, threads);
    let (rank_results, report, _) =
        machine.run(Universe::new(part.num_procs()), false, |comm, ctx| {
            rank_hopm(comm, ctx, part.shards_of(comm.rank(), x0), alpha, opts)
        });

    // Assemble x from the rank shards; scalars agree on all ranks.
    let mut x = vec![0.0; n];
    let mut lambda = 0.0;
    let mut iters = 0;
    let mut converged = false;
    let mut residual = 0.0;
    // Machine-wide work: sum of per-rank §7.1 ternary-multiplication
    // counts. (The distributed kernel does not track iteration-space
    // points, so `ops.points` stays 0; the residual is of the last pass's
    // input, from that pass's output, so there is no extra STTSV.)
    let mut ops = OpCount::default();
    for (p, out) in rank_results.into_iter().enumerate() {
        lambda = out.lambda;
        iters = out.iters;
        converged = out.converged;
        residual = out.residual;
        ops.ternary_mults += out.ternary;
        part.place_shards(p, &out.x_shards, &mut x);
    }
    (HopmResult { lambda, x, iters, converged, residual, ops }, report)
}

/// Per-rank HOPM state returned to the driver.
struct RankHopmOut {
    x_shards: Vec<Vec<f64>>,
    lambda: f64,
    iters: usize,
    converged: bool,
    residual: f64,
    /// Ternary multiplications this rank performed across all iterations.
    ternary: u64,
}

fn rank_hopm(
    comm: &Comm,
    ctx: &RankContext<'_>,
    mut x_shards: Vec<Vec<f64>>,
    alpha: f64,
    opts: HopmOptions,
) -> RankHopmOut {
    // Normalize the start vector globally.
    let local_sq: f64 = x_shards.iter().flatten().map(|&v| v * v).sum();
    let norm0 = comm.all_reduce(vec![local_sq]).expect("norm all-reduce")[0].sqrt();
    assert!(norm0 > 0.0, "start vector must be nonzero");
    for shard in &mut x_shards {
        for v in shard.iter_mut() {
            *v /= norm0;
        }
    }

    let mut lambda = 0.0;
    let mut iters = 0;
    let mut converged = false;
    let mut ternary = 0u64;
    // The last pass's local step `[diff_pos, diff_neg]`, reduced together
    // with the next pass's scalars, and its local squared residual.
    let mut step = Vec::new();
    let mut res_sq = 0.0;
    while iters < opts.max_iters {
        let (mut y, count) = ctx.sttsv(comm, &x_shards);
        ternary += count;
        iters += 1;
        // xᵀ(Axx) before shifting; ‖x‖ = 1, so it is the Rayleigh quotient.
        let x_dot_raw: f64 =
            x_shards.iter().flatten().zip(y.iter().flatten()).map(|(&a, &b)| a * b).sum();
        // Shifted iterate y = A·x·x + α·x.
        if alpha != 0.0 {
            for (shard, xs) in y.iter_mut().zip(&x_shards) {
                for (v, &xv) in shard.iter_mut().zip(xs) {
                    *v += alpha * xv;
                }
            }
        }
        let shift_sq: f64 = y.iter().flatten().map(|&v| v * v).sum();
        // The pass's one all-reduce: its own scalars and the last step.
        let mut scalars = vec![shift_sq, x_dot_raw];
        scalars.append(&mut step);
        let global = comm.all_reduce(scalars).expect("solver all-reduce");
        lambda = global[1];
        // y − (α + λ)·x = A·x·x − λ·x, the input's eigen-residual.
        let shift = alpha + lambda;
        res_sq = y
            .iter()
            .flatten()
            .zip(x_shards.iter().flatten())
            .map(|(&v, &xv)| (v - shift * xv) * (v - shift * xv))
            .sum();
        let y_norm = global[0].sqrt();
        if y_norm == 0.0 {
            break;
        }
        // Normalize y and measure the sign-aligned step.
        let mut diff_pos = 0.0;
        let mut diff_neg = 0.0;
        for (shard, old) in y.iter_mut().zip(&x_shards) {
            for (v, &o) in shard.iter_mut().zip(old) {
                *v /= y_norm;
                diff_pos += (o - *v) * (o - *v);
                diff_neg += (o + *v) * (o + *v);
            }
        }
        x_shards = y;
        // Lagged test: the previous pass's step, reduced above.
        if let [_, _, pos, neg] = global[..] {
            if pos.min(neg).sqrt() < opts.tol {
                converged = true;
                break;
            }
        }
        step = vec![diff_pos, diff_neg];
    }
    // One closing all-reduce: the last pass's residual and, when the
    // iteration cap ended the loop, its step.
    let mut closing = vec![res_sq];
    closing.append(&mut step);
    let last = comm.all_reduce(closing).expect("closing all-reduce");
    if let [_, pos, neg] = last[..] {
        converged = pos.min(neg).sqrt() < opts.tol;
    }
    let residual = last[0].sqrt();
    RankHopmOut { x_shards, lambda, iters, converged, residual, ternary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm5::parallel_sttsv;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor_core::generate::random_odeco;
    use symtensor_core::hopm::hopm;
    use symtensor_core::ops::dot;
    use symtensor_steiner::spherical;

    #[test]
    fn parallel_hopm_matches_sequential_on_odeco() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(91);
        let odeco = random_odeco(n, 3, &mut rng);
        let mut x0 = odeco.vectors[0].clone();
        x0[2] += 0.05;
        let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
        let (par, report) = parallel_hopm(&odeco.tensor, &part, &x0, opts, Mode::Scheduled);
        let seq = hopm(&odeco.tensor, &x0, opts);
        assert!(par.converged);
        assert!((par.lambda - seq.lambda).abs() < 1e-8, "{} vs {}", par.lambda, seq.lambda);
        assert!((par.lambda - odeco.eigenvalues[0]).abs() < 1e-8);
        let align = dot(&par.x, &odeco.vectors[0]).abs();
        assert!(align > 1.0 - 1e-8);
        assert!(par.residual < 1e-8);
        // Communication happened on every rank.
        assert!(report.bandwidth_cost() > 0);
    }

    /// The seed-91 odeco case of the test above: tensor and start vector.
    fn odeco_91(n: usize) -> (SymTensor3, Vec<f64>) {
        let odeco = random_odeco(n, 3, &mut StdRng::seed_from_u64(91));
        let mut x0 = odeco.vectors[0].clone();
        x0[2] += 0.05;
        (odeco.tensor, x0)
    }

    #[test]
    fn solver_sends_one_all_reduce_per_pass() {
        let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
        for q in [2u64, 3] {
            let part = TetraPartition::new(spherical(q), 60).unwrap();
            let (tensor, x0) = odeco_91(60);
            // Rank 0's messages and words in one single-vector STTSV.
            let one = parallel_sttsv(&tensor, &part, &x0, Mode::Scheduled).report.per_rank[0];
            let (m, w) = (one.msgs_sent, one.words_sent);
            let peers = part.num_procs() as u64 - 1;
            let (res, report) = parallel_hopm(&tensor, &part, &x0, opts, Mode::Scheduled);
            assert!(res.converged, "q={q}");
            let k = res.iters as u64;
            let root = report.per_rank[0];
            // The start norm, one all-reduce per pass and the closing one,
            // each a message to every peer.
            assert_eq!(root.msgs_sent, peers * (k + 2) + k * m, "q={q}");
            // Scalars: 1 for the start norm, 2 on the first pass, 4 on
            // every later pass and the residual alone at the close.
            assert_eq!(root.words_sent, peers * 4 * k + k * w, "q={q}");
        }
        // One capped pass: 9 messages for each of the three all-reduces
        // and 18 for the STTSV; 1 + 2 + 3 scalars to each of the 9 peers
        // and the STTSV's 60 words.
        let part = TetraPartition::new(spherical(2), 60).unwrap();
        let (tensor, x0) = odeco_91(60);
        let capped = HopmOptions { max_iters: 1, ..opts };
        let (res, report) = parallel_hopm(&tensor, &part, &x0, capped, Mode::Scheduled);
        assert_eq!((res.iters, res.converged), (1, false));
        assert_eq!((report.per_rank[0].msgs_sent, report.per_rank[0].words_sent), (45, 114));
    }

    #[test]
    fn trajectory_does_not_depend_on_tol() {
        let part = TetraPartition::new(spherical(2), 30).unwrap();
        let (tensor, x0) = odeco_91(30);
        let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
        let (solved, _) = parallel_hopm(&tensor, &part, &x0, opts, Mode::Scheduled);
        assert!(solved.converged);
        let capped = HopmOptions { tol: 0.0, max_iters: solved.iters };
        let (run, _) = parallel_hopm(&tensor, &part, &x0, capped, Mode::Scheduled);
        assert!(!run.converged);
        assert_eq!(run.iters, solved.iters);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&run.x), bits(&solved.x));
        assert_eq!(run.lambda.to_bits(), solved.lambda.to_bits());
        assert_eq!(run.residual.to_bits(), solved.residual.to_bits());
    }

    #[test]
    fn residual_is_accurate_wherever_the_loop_stops() {
        let part = TetraPartition::new(spherical(2), 30).unwrap();
        let (tensor, x0) = odeco_91(30);
        for max_iters in (5..=30).step_by(5) {
            let opts = HopmOptions { tol: 0.0, max_iters };
            let (res, _) = parallel_hopm(&tensor, &part, &x0, opts, Mode::Scheduled);
            assert!(res.residual < 1e-12, "cap {max_iters}: residual {}", res.residual);
        }
    }

    #[test]
    fn parallel_hopm_all_to_all_mode() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(92);
        let odeco = random_odeco(n, 2, &mut rng);
        let mut x0 = odeco.vectors[0].clone();
        x0[1] += 0.1;
        let opts = HopmOptions::default();
        let (par, _) = parallel_hopm(&odeco.tensor, &part, &x0, opts, Mode::AllToAllPadded);
        assert!(par.converged);
        assert!((par.lambda - odeco.eigenvalues[0]).abs() < 1e-8);
    }

    #[test]
    fn shifted_parallel_hopm_matches_sequential_on_indefinite_tensor() {
        use symtensor_core::generate::random_symmetric;
        use symtensor_core::hopm::{safe_shift, shifted_hopm};
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(94);
        let tensor = random_symmetric(n, &mut rng);
        let x0: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.37).sin()).collect();
        let alpha = safe_shift(&tensor);
        let opts = HopmOptions { tol: 1e-13, max_iters: 20000 };
        let seq = shifted_hopm(&tensor, &x0, alpha, opts);
        let (par, _) =
            super::parallel_shifted_hopm(&tensor, &part, &x0, alpha, opts, Mode::Scheduled);
        assert!(par.converged && seq.converged);
        assert!((par.lambda - seq.lambda).abs() < 1e-6, "{} vs {}", par.lambda, seq.lambda);
        assert!(par.residual < 1e-5, "residual {}", par.residual);
    }

    #[test]
    fn ops_count_iterations_times_machine_work() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(95);
        let odeco = random_odeco(n, 3, &mut rng);
        let mut x0 = odeco.vectors[0].clone();
        x0[3] += 0.05;
        let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
        let (par, _) = parallel_hopm(&odeco.tensor, &part, &x0, opts, Mode::Scheduled);
        assert!(par.converged);
        // One Algorithm-5 STTSV per iteration; each costs the sum of the
        // per-rank §7.1 ternary counts.
        let per_call: u64 = (0..part.num_procs()).map(|p| part.ternary_mults(p)).sum();
        assert_eq!(par.ops.ternary_mults, par.iters as u64 * per_call);
        assert_eq!(par.ops.flops(), 3 * par.ops.ternary_mults);
    }

    #[test]
    fn mt_hopm_converges_to_the_same_eigenpair() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(96);
        let odeco = random_odeco(n, 3, &mut rng);
        let mut x0 = odeco.vectors[0].clone();
        x0[2] += 0.05;
        let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
        let (base, base_report) =
            parallel_shifted_hopm(&odeco.tensor, &part, &x0, 0.0, opts, Mode::Scheduled);
        let (mt, mt_report) =
            parallel_shifted_hopm_planned(&odeco.tensor, &part, &x0, 0.0, opts, Mode::Scheduled, 4);
        assert!(mt.converged);
        assert!((mt.lambda - base.lambda).abs() < 1e-10);
        assert_eq!(mt.iters, base.iters);
        // Communication is a function of the partition only, not the pool.
        for (a, b) in base_report.per_rank.iter().zip(&mt_report.per_rank) {
            assert_eq!(a.words_sent, b.words_sent);
            assert_eq!(a.rounds, b.rounds);
        }
    }

    #[test]
    fn planned_hopm_is_thread_deterministic_and_exact() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(97);
        let odeco = random_odeco(n, 3, &mut rng);
        let mut x0 = odeco.vectors[0].clone();
        x0[2] += 0.05;
        let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
        let seq = hopm(&odeco.tensor, &x0, opts);
        let n64 = n as u64;
        for mode in [Mode::Scheduled, Mode::AllToAllSparse, Mode::AllToAllPadded] {
            let run = |threads: usize| {
                parallel_shifted_hopm_planned(&odeco.tensor, &part, &x0, 0.0, opts, mode, threads)
            };
            let (base, _) = run(1);
            assert!(base.converged, "{mode:?}");
            assert!((base.lambda - seq.lambda).abs() < 1e-8, "{mode:?}");
            assert_eq!(base.ops.ternary_mults, base.iters as u64 * n64 * n64 * (n64 + 1) / 2);
            // The pooled kernels are deterministic in the thread count: any
            // pool size reproduces the same fixed chunk tree, so the whole
            // trajectory and its communication are identical.
            let (t2, t2_report) = run(2);
            let (t3, t3_report) = run(3);
            assert_eq!(t2.x, t3.x, "{mode:?}: pooled plan runs must not depend on pool size");
            assert_eq!(t2.lambda.to_bits(), t3.lambda.to_bits());
            assert_eq!(t2.iters, t3.iters);
            assert_eq!(t2_report, t3_report, "comm counters must not depend on pool size");
        }
    }

    #[test]
    fn unit_norm_output() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(93);
        let odeco = random_odeco(n, 2, &mut rng);
        let (par, _) = parallel_hopm(
            &odeco.tensor,
            &part,
            &odeco.vectors[0].clone(),
            HopmOptions::default(),
            Mode::Scheduled,
        );
        let norm: f64 = par.x.iter().map(|&v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-10);
    }
}
