//! The drivers that still take a `threads` argument ignore it: each rank
//! computes on its own thread, over one compute path. At every `threads`
//! the batched driver and the serving loop give the same output bits, cost
//! report and ternary counts, and the eigen-solver gives the same iterate,
//! eigenvalue and iteration count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symtensor_core::generate::random_symmetric;
use symtensor_core::hopm::HopmOptions;
use symtensor_parallel::hopm::parallel_shifted_hopm_planned;
use symtensor_parallel::{
    parallel_sttsv_multi_planned, parallel_sttsv_serve, Mode, ServeRequest, TetraPartition,
};
use symtensor_steiner::spherical;

fn bits(ys: &[Vec<f64>]) -> Vec<Vec<u64>> {
    ys.iter().map(|y| y.iter().map(|v| v.to_bits()).collect()).collect()
}

#[test]
fn threads_argument_changes_no_bit() {
    for (q, n) in [(2u64, 60usize), (3, 120)] {
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(27 + q);
        let tensor = random_symmetric(n, &mut rng);
        let xs: Vec<Vec<f64>> =
            (0..3).map(|_| (0..n).map(|_| rng.gen::<f64>() - 0.5).collect()).collect();
        let requests: Vec<ServeRequest> =
            xs.iter().enumerate().map(|(i, x)| ServeRequest::new(i as u64, x.clone())).collect();
        let opts = HopmOptions { tol: 1e-12, max_iters: 8 };

        let multi =
            |threads| parallel_sttsv_multi_planned(&tensor, &part, &xs, Mode::Scheduled, threads);
        let serve = |threads| {
            parallel_sttsv_serve(&tensor, &part, &requests, Mode::Scheduled, threads, 2).unwrap()
        };
        let hopm = |threads| {
            parallel_shifted_hopm_planned(
                &tensor,
                &part,
                &xs[0],
                2.0,
                opts,
                Mode::Scheduled,
                threads,
            )
        };
        let (multi_1, serve_1, (hopm_1, hopm_report_1)) = (multi(1), serve(1), hopm(1));
        for threads in [2, 4] {
            let run = multi(threads);
            assert_eq!(bits(&run.ys), bits(&multi_1.ys), "q={q} threads={threads}: multi bits");
            assert_eq!(run.report, multi_1.report, "q={q} threads={threads}: multi report");
            assert_eq!(run.ternary_per_rank, multi_1.ternary_per_rank, "q={q}: multi ternary");

            let run = serve(threads);
            assert_eq!(bits(&run.ys), bits(&serve_1.ys), "q={q} threads={threads}: serve bits");
            assert_eq!(run.report, serve_1.report, "q={q} threads={threads}: serve report");
            assert_eq!(run.ternary_per_rank, serve_1.ternary_per_rank, "q={q}: serve ternary");

            let (res, report) = hopm(threads);
            assert_eq!(
                bits(std::slice::from_ref(&res.x)),
                bits(std::slice::from_ref(&hopm_1.x)),
                "q={q} threads={threads}: x"
            );
            assert_eq!(res.lambda.to_bits(), hopm_1.lambda.to_bits(), "q={q}: λ");
            assert_eq!(res.iters, hopm_1.iters, "q={q} threads={threads}: iters");
            assert_eq!(report, hopm_report_1, "q={q} threads={threads}: solver report");
        }
    }
}
