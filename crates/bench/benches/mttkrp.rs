//! MTTKRP benches: fused vs column-wise sequential kernels, and the
//! distributed MTTKRP whose bandwidth is exactly `r ×` one STTSV while the
//! round count stays that of a single STTSV (the §8 generalization).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use symtensor_bench::{bench_partition, bench_tensor};
use symtensor_core::mttkrp::{mttkrp_sym, mttkrp_sym_fused};
use symtensor_core::ops::Matrix;
use symtensor_parallel::mttkrp::parallel_mttkrp;
use symtensor_parallel::Mode;

fn factor(n: usize, r: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(n, r);
    for row in 0..n {
        for col in 0..r {
            m.set(row, col, rng.gen::<f64>() - 0.5);
        }
    }
    m
}

fn bench_sequential_mttkrp(c: &mut Criterion) {
    let mut group = c.benchmark_group("mttkrp_sequential");
    group.sample_size(10);
    let n = 120;
    let tensor = bench_tensor(n, 7);
    for r in [2usize, 8] {
        let x = factor(n, r, 8);
        group.bench_with_input(BenchmarkId::new("columnwise", r), &r, |bench, _| {
            bench.iter(|| mttkrp_sym(black_box(&tensor), &x))
        });
        group.bench_with_input(BenchmarkId::new("fused", r), &r, |bench, _| {
            bench.iter(|| mttkrp_sym_fused(black_box(&tensor), &x))
        });
    }
    group.finish();
}

fn bench_parallel_mttkrp(c: &mut Criterion) {
    let mut group = c.benchmark_group("mttkrp_parallel");
    group.sample_size(10);
    let part = bench_partition(2, 2);
    let n = part.dim();
    let tensor = bench_tensor(n, 9);
    for r in [2usize, 4] {
        let x = factor(n, r, 10);
        let run = parallel_mttkrp(&tensor, &part, &x, Mode::Scheduled).expect("valid inputs");
        eprintln!(
            "[mttkrp] n={n} r={r}: {} words/rank in {} rounds (1 STTSV's round count)",
            run.report.bandwidth_cost(),
            run.report.max_rounds()
        );
        group.bench_with_input(BenchmarkId::new("scheduled_p10", r), &r, |bench, _| {
            bench.iter(|| parallel_mttkrp(black_box(&tensor), &part, &x, Mode::Scheduled).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sequential_mttkrp, bench_parallel_mttkrp);
criterion_main!(benches);
