//! The higher-order power method on distributed vectors, with the
//! communication-optimal STTSV kernel inside (Algorithm 1 of the paper,
//! whose per-iteration bottleneck is exactly the computation this library
//! optimizes).
//!
//! `x` and `y` stay distributed in the tetrahedral shard layout across
//! iterations, and each pass is one Algorithm-5 STTSV. A pass needs two
//! global sums: `[‖y‖², xᵀAxx]` of its output, and the step
//! `[diff_pos, diff_neg]` into its input.
//!
//! Where the exchange meets every peer in both phases (every mode at
//! `q = 2`, the all-to-all modes at every `q`), they ride on the STTSV's
//! own messages and no collective runs inside the loop. Pass `j`'s
//! gather-x carries pass `j − 1`'s output *unnormalised*, with its
//! `[‖y‖², xᵀAxx]` appended to every message. Every rank sums those riders
//! in rank order, the fold of [`Comm::all_reduce`], and divides what it
//! gathered by `‖y‖`, as the owner would. Pass `j`'s reduce-y carries the
//! step that division made. Where some pair of ranks never meets (scheduled
//! mode at `q ≥ 3`, SQS(8)), one all-reduce per pass carries the pass's
//! `[‖y‖², xᵀAxx]` together with the step before it. Both ways give the
//! same bits.
//!
//! Either way the convergence test lags one pass behind: a converged solve
//! runs one STTSV past the pass whose step fell under the tolerance.
//! Outside the loop, one all-reduce normalizes the start vector, one
//! settles the last pass's `[‖y‖², xᵀAxx]` where those ride, and one
//! reduces the last pass's residual (with its step after an iteration
//! cap).

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
/// Where the exchange meets every peer in both phases (every mode at
/// `q = 2`, the all-to-all modes at every `q`), no collective runs inside
/// the loop: each pass's scalars ride on the next STTSV's messages (see
/// the module docs). Elsewhere one all-reduce per pass carries them. Around
/// the loop, one all-reduce normalizes `x0`, one settles the last pass's
/// norm and Rayleigh quotient where those ride, and one reduces the
/// residual. The partition and `mode` alone choose the way, and both give
/// the same bits.
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
    let may_ride = scalars_may_ride();
    let (rank_results, report) = Universe::new(part.num_procs()).run(|comm| {
        machine.with_rank(comm, |ctx| {
            let x_shards = part.shards_of(comm.rank(), x0);
            let rides = may_ride && ctx.meets_every_peer();
            rank_hopm(comm, ctx, Solver::start(comm, x_shards, alpha), opts, rides)
        })
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

/// Whether a pass's scalars may ride on the STTSV's messages; a test can
/// force the all-reduce way on its own thread.
fn scalars_may_ride() -> bool {
    #[cfg(test)]
    if tests::FORCE_ALL_REDUCE.with(std::cell::Cell::get) {
        return false;
    }
    true
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

/// One rank's iterate and the scalars of its last pass, on this rank's
/// shards.
struct Solver {
    alpha: f64,
    /// The current iterate, unit norm.
    x: Vec<Vec<f64>>,
    /// The last pass's shifted output `A·x·x + α·x`, not yet normalized.
    y: Vec<Vec<f64>>,
    /// The last pass's local `[‖y‖², xᵀAxx]` until they are reduced.
    partials: Vec<f64>,
    /// The local step `[diff_pos, diff_neg]` into `x` until it is reduced.
    step: Vec<f64>,
    /// λ of the last settled pass.
    lambda: f64,
    /// This rank's squared residual of the last settled pass's input.
    res_sq: f64,
}

impl Solver {
    /// Normalizes the start vector globally: the first all-reduce.
    fn start(comm: &Comm, mut x: Vec<Vec<f64>>, alpha: f64) -> Self {
        let local_sq: f64 = x.iter().flatten().map(|&v| v * v).sum();
        let norm0 = comm.all_reduce(vec![local_sq]).expect("norm all-reduce")[0].sqrt();
        assert!(norm0 > 0.0, "start vector must be nonzero");
        for v in x.iter_mut().flatten() {
            *v /= norm0;
        }
        let (y, partials, step) = (Vec::new(), Vec::new(), Vec::new());
        Solver { alpha, x, y, partials, step, lambda: 0.0, res_sq: 0.0 }
    }

    /// Takes a pass's output `A·x·x`: shifts it by `α·x` and keeps its
    /// local `[‖y‖², xᵀAxx]`.
    fn take_output(&mut self, mut y: Vec<Vec<f64>>) {
        // xᵀ(Axx) before shifting; ‖x‖ = 1, so it is the Rayleigh quotient.
        let x_dot_raw: f64 =
            self.x.iter().flatten().zip(y.iter().flatten()).map(|(&a, &b)| a * b).sum();
        if self.alpha != 0.0 {
            for (v, &xv) in y.iter_mut().flatten().zip(self.x.iter().flatten()) {
                *v += self.alpha * xv;
            }
        }
        let shift_sq: f64 = y.iter().flatten().map(|&v| v * v).sum();
        self.y = y;
        self.partials = vec![shift_sq, x_dot_raw];
    }

    /// Settles the last pass from its reduced `[‖y‖², xᵀAxx]`: keeps λ and
    /// this rank's squared residual `‖y − (α + λ)·x‖²`, the input's
    /// eigen-residual, and returns `‖y‖`.
    fn settle(&mut self, global: &[f64]) -> f64 {
        self.lambda = global[1];
        let shift = self.alpha + self.lambda;
        self.res_sq = self
            .y
            .iter()
            .flatten()
            .zip(self.x.iter().flatten())
            .map(|(&v, &xv)| (v - shift * xv) * (v - shift * xv))
            .sum();
        global[0].sqrt()
    }

    /// Moves to the normalized iterate `next`, keeping the local
    /// sign-aligned step into it.
    fn advance(&mut self, next: Vec<Vec<f64>>) {
        let (mut diff_pos, mut diff_neg) = (0.0, 0.0);
        for (&o, &v) in self.x.iter().flatten().zip(next.iter().flatten()) {
            diff_pos += (o - v) * (o - v);
            diff_neg += (o + v) * (o + v);
        }
        self.step = vec![diff_pos, diff_neg];
        self.x = next;
    }

    /// Settles the last pass by one all-reduce of its partials and the
    /// step before them, normalizing on the owners. Returns that step,
    /// reduced (empty if there was none), or `None` when `‖y‖ = 0` leaves
    /// no next iterate.
    fn settle_by_all_reduce(&mut self, comm: &Comm) -> Option<Vec<f64>> {
        let mut scalars = std::mem::take(&mut self.partials);
        scalars.append(&mut self.step);
        let mut global = comm.all_reduce(scalars).expect("solver all-reduce");
        let last_step = global.split_off(2);
        let y_norm = self.settle(&global);
        if y_norm == 0.0 {
            return None;
        }
        let mut next = std::mem::take(&mut self.y);
        for v in next.iter_mut().flatten() {
            *v /= y_norm;
        }
        self.advance(next);
        Some(last_step)
    }
}

/// Whether a reduced step `[diff_pos, diff_neg]` is under `tol`.
fn step_below(step: &[f64], tol: f64) -> bool {
    matches!(step, [pos, neg] if pos.min(*neg).sqrt() < tol)
}

fn rank_hopm(
    comm: &Comm,
    ctx: &RankContext<'_>,
    mut s: Solver,
    opts: HopmOptions,
    rides: bool,
) -> RankHopmOut {
    let mut iters = 0;
    let mut converged = false;
    let mut ternary = 0u64;
    // Each `break` on `‖y‖ = 0` leaves the last pass's partials reduced
    // and taken, so nothing below reduces them again.
    while iters < opts.max_iters {
        // Riding, every pass after the first gathers the last pass's
        // output unnormalised, with its partials; every rank then divides
        // what it gathered by the summed norm.
        let rider = if rides { std::mem::take(&mut s.partials) } else { Vec::new() };
        let input = if rider.is_empty() { &s.x } else { &s.y };
        let mut gathered = ctx.gather(comm, std::slice::from_ref(input), &rider);
        if !rider.is_empty() {
            let y_norm = s.settle(gathered.riders());
            if y_norm == 0.0 {
                break;
            }
            let mut next = std::mem::take(&mut s.y);
            gathered.normalize(y_norm, &mut next);
            s.advance(next);
        }
        let step_rider = if rides { std::mem::take(&mut s.step) } else { Vec::new() };
        let (mut ys, count, _, step_sum) = gathered.finish(comm, &step_rider);
        ternary += count;
        iters += 1;
        s.take_output(ys.pop().expect("one output per input"));
        // The lagged test: the step into this pass's input.
        let last_step = if rides {
            step_sum
        } else {
            let Some(step) = s.settle_by_all_reduce(comm) else { break };
            step
        };
        if step_below(&last_step, opts.tol) {
            converged = true;
            break;
        }
    }
    // Riding, the last pass's partials are still unreduced.
    if !s.partials.is_empty() && s.settle_by_all_reduce(comm).is_none() {
        converged = false;
    }
    // One closing all-reduce: the last pass's residual and, when the
    // iteration cap ended the loop, the step into the returned iterate.
    let mut closing = vec![s.res_sq];
    if !converged {
        closing.append(&mut s.step);
    }
    let last = comm.all_reduce(closing).expect("closing all-reduce");
    if last.len() > 1 {
        converged = step_below(&last[1..], opts.tol);
    }
    let residual = last[0].sqrt();
    RankHopmOut { x_shards: s.x, lambda: s.lambda, iters, converged, residual, ternary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm5::parallel_sttsv;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;
    use symtensor_core::generate::random_odeco;
    use symtensor_core::hopm::hopm;
    use symtensor_core::ops::dot;
    use symtensor_mpsim::CommEventKind;
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

    thread_local! {
        /// While set, solves started on this thread reduce their scalars
        /// by all-reduce.
        pub(super) static FORCE_ALL_REDUCE: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` with every solve it starts taking the all-reduce way.
    fn with_all_reduce_scalars<R>(f: impl FnOnce() -> R) -> R {
        struct Forced;
        impl Drop for Forced {
            fn drop(&mut self) {
                FORCE_ALL_REDUCE.with(|forced| forced.set(false));
            }
        }
        FORCE_ALL_REDUCE.with(|forced| forced.set(true));
        let _forced = Forced;
        f()
    }

    #[test]
    fn solver_traffic_is_exact() {
        let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
        let cases = [
            (2u64, Mode::Scheduled, true),
            (3, Mode::Scheduled, false),
            (3, Mode::AllToAllSparse, true),
        ];
        for (q, mode, rides) in cases {
            let part = TetraPartition::new(spherical(q), 60).unwrap();
            let (tensor, x0) = odeco_91(60);
            // Rank 0's messages and words in one single-vector STTSV.
            let one = parallel_sttsv(&tensor, &part, &x0, mode).report.per_rank[0];
            let (m, w) = (one.msgs_sent, one.words_sent);
            let peers = part.num_procs() as u64 - 1;
            let (res, report) = parallel_hopm(&tensor, &part, &x0, opts, mode);
            assert!(res.converged, "q={q} {mode:?}");
            let k = res.iters as u64;
            let root = report.per_rank[0];
            // Riding: the start norm, the last pass's norm and the residual
            // are the only collectives, each a message to every peer.
            // Otherwise one all-reduce per pass runs as well.
            let collectives = if rides { 3 } else { k + 2 };
            assert_eq!(root.msgs_sent, peers * collectives + k * m, "q={q} {mode:?}");
            // Both ways send every peer 4 scalars per pass. Riding: 2 on
            // each gather and reduce message after the first pass, 1 for
            // the start norm, 2 for the last pass's norm, 1 for the
            // residual. Otherwise: 1, then 2 on the first pass and 4 on
            // every later one, then 1.
            assert_eq!(root.words_sent, peers * 4 * k + k * w, "q={q} {mode:?}");
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
    fn riding_and_all_reduce_scalars_give_the_same_bits() {
        let part = TetraPartition::new(spherical(2), 30).unwrap();
        let (odeco, x0) = odeco_91(30);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let check = |tensor: &SymTensor3, alpha: f64, opts: HopmOptions, mode: Mode| {
            let solve = || parallel_shifted_hopm(tensor, &part, &x0, alpha, opts, mode);
            let (ride, ride_report) = solve();
            let (reduce, reduce_report) = with_all_reduce_scalars(solve);
            let case = format!("{mode:?} α={alpha} cap {}", opts.max_iters);
            assert_eq!((ride.iters, ride.converged), (reduce.iters, reduce.converged), "{case}");
            assert_eq!(bits(&ride.x), bits(&reduce.x), "{case}");
            assert_eq!(ride.lambda.to_bits(), reduce.lambda.to_bits(), "{case}");
            assert_eq!(ride.residual.to_bits(), reduce.residual.to_bits(), "{case}");
            let msgs = |report: &CostReport| report.per_rank[0].msgs_sent;
            assert!(msgs(&ride_report) <= msgs(&reduce_report), "{case}");
            ride
        };
        for mode in [Mode::Scheduled, Mode::AllToAllSparse, Mode::AllToAllPadded] {
            for alpha in [0.0, 5.0] {
                let solved = check(&odeco, alpha, HopmOptions { tol: 1e-9, max_iters: 2000 }, mode);
                assert!(solved.converged, "{mode:?} α={alpha}");
                for max_iters in [1, 7] {
                    check(&odeco, alpha, HopmOptions { tol: 1e-9, max_iters }, mode);
                }
            }
            // ‖y‖ = 0 after the first pass: both ways stop there.
            let zero = SymTensor3::zeros(30);
            for max_iters in [1, 7] {
                let stopped = check(&zero, 0.0, HopmOptions { tol: 1e-9, max_iters }, mode);
                assert_eq!((stopped.iters, stopped.converged), (1, false), "{mode:?}");
                assert_eq!((stopped.lambda, stopped.residual), (0.0, 0.0), "{mode:?}");
            }
        }
    }

    #[test]
    fn riding_solve_keeps_the_zero_allocation_steady_state() {
        let part = TetraPartition::new(spherical(2), 60).unwrap();
        let (tensor, x0) = odeco_91(60);
        let machine = Machine::new(&tensor, &part, Mode::Scheduled, 1);
        let opts = HopmOptions { tol: 0.0, max_iters: 20 };
        let (outs, _, logs) = Universe::new(part.num_procs()).run_traced(|comm| {
            machine.with_rank(comm, |ctx| {
                assert!(ctx.meets_every_peer());
                let x_shards = part.shards_of(comm.rank(), &x0);
                rank_hopm(comm, ctx, Solver::start(comm, x_shards, 0.0), opts, true)
            })
        });
        for (rank, (events, out)) in logs.iter().zip(&outs).enumerate() {
            let fresh: Vec<u64> = events
                .iter()
                .filter_map(|ev| match ev.kind {
                    CommEventKind::Counter { key: "plan:fresh_allocs", value } => Some(value),
                    _ => None,
                })
                .collect();
            // One kernel sample per pass, flat from the first: the riders
            // never regrow a message buffer.
            assert_eq!(fresh.len(), out.iters, "rank {rank}");
            assert!(fresh.iter().all(|&f| f == fresh[0]), "rank {rank}: {fresh:?}");
        }
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
