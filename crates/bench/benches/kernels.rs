//! E10 — local kernel throughput: the flat-slab cursor kernel vs the seed
//! per-point kernel, the blocked variant, the batched multi-vector path,
//! and the compiled-plan packed arena vs the per-block legacy walk.
//!
//! Claims under test: the flat-slab walk beats the per-point
//! `tet(i)+tri(j)+k` addressing (≥2× at n = 512); `sttsv_sym_multi`
//! amortizes the slab traversal across a batch (one pass over the tensor
//! instead of `B`); the compiled `RankPlan` arena kernel is no slower
//! than `OwnedBlocks::compute` while running allocation-free, and a batch
//! of 8 (`plan_arena_x8`, one fused pass over the arena) costs less than 8
//! single-vector calls.
//!
//! Besides the Criterion report, this bench self-times a representative
//! subset and writes `BENCH_kernels.json` at the repository root
//! (`{kernel, n, q, ns_per_iter, flops_per_sec}` per case; `q = null` marks
//! sequential kernels with no partition) so CI can archive kernel
//! throughput as an artifact. The top-level `kernel_isa` field names the
//! batch-kernel instance the plan rows ran (`blocks::kernel_isa`). The
//! offline Criterion shim has no JSON machinery, so the rows come from a
//! best-of-three wall-clock loop here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;
use symtensor_bench::{bench_partition, bench_tensor, bench_vector};
use symtensor_core::seq::{sttsv_sym, sttsv_sym_blocked, sttsv_sym_multi, sttsv_sym_ref};
use symtensor_obs::json::Value;
use symtensor_parallel::blocks::{kernel_isa, OwnedBlocks};
use symtensor_parallel::{PlanWorkspace, RankPlan};

/// Ternary-multiplication count of one STTSV — the paper's work measure,
/// used as Criterion throughput so reports read in elements/sec.
fn ternary(n: usize) -> u64 {
    let n = n as u64;
    n * n * (n + 1) / 2
}

/// Best-of-three self-timed measurement: one warm-up call, then three
/// batches of five invocations; returns `(ns_per_iter, last_return)`.
fn measure<F: FnMut() -> u64>(mut f: F) -> (f64, u64) {
    let mut work = f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        const ITERS: u32 = 5;
        let t0 = Instant::now();
        for _ in 0..ITERS {
            work = f();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / f64::from(ITERS));
    }
    (best, work)
}

/// Appends one `BENCH_kernels.json` row. Effective flops treat each
/// ternary multiplication as 2 multiplies + 1 fused accumulate.
fn record(
    rows: &mut Vec<Value>,
    kernel: &str,
    n: usize,
    q: Option<u64>,
    ns: f64,
    ternary_mults: u64,
) {
    let flops_per_sec = 3.0 * ternary_mults as f64 / (ns * 1e-9);
    rows.push(
        Value::object()
            .with("kernel", kernel)
            .with("n", n)
            .with("q", q.map(Value::from).unwrap_or(Value::Null))
            .with("ns_per_iter", ns)
            .with("flops_per_sec", flops_per_sec),
    );
}

/// Compiled-plan packed arena vs the legacy per-block walk on rank 0's
/// owned blocks, post-gather (both paths see the same dense row blocks),
/// plus the arena kernel on a batch of [`PLAN_BATCH`] vectors.
fn bench_plan(c: &mut Criterion, rows: &mut Vec<Value>) {
    const PLAN_BATCH: usize = 8;
    let mut group = c.benchmark_group("kernel_plan");
    group.sample_size(10);
    for q in [2u64, 3] {
        let qq = q as usize;
        let n = (qq * qq + 1) * qq * (qq + 1);
        let part = bench_partition(q, 1);
        let tensor = bench_tensor(n, 13);
        let rank = 0;
        let rp = part.r_set(rank);
        let b = part.block_size();
        let owned = OwnedBlocks::extract(&tensor, &part, rank);
        let plan = RankPlan::build(&part, &owned, rank);
        let x_full: Vec<Vec<f64>> = (0..rp.len())
            .map(|t| (0..b).map(|i| (((i + t * 7) as f64) * 0.019).cos()).collect())
            .collect();
        let mut y = vec![vec![0.0; b]; rp.len()];
        let mut ws = PlanWorkspace::new();
        plan.ensure_capacity(&mut ws, 1);
        let xs_batch: Vec<Vec<Vec<f64>>> = (0..PLAN_BATCH)
            .map(|v| {
                (0..rp.len())
                    .map(|t| (0..b).map(|i| (((i + t * 7 + v * 3) as f64) * 0.019).cos()).collect())
                    .collect()
            })
            .collect();
        let mut ws_batch = PlanWorkspace::new();
        plan.ensure_capacity(&mut ws_batch, PLAN_BATCH);

        let mut legacy = || {
            for row in y.iter_mut() {
                row.fill(0.0);
            }
            owned.compute(black_box(&x_full), &mut y, |i| rp.binary_search(&i).unwrap())
        };
        let arena = |ws: &mut PlanWorkspace| {
            plan.load_full(ws, 0, black_box(&x_full));
            plan.compute(ws, 1, None)
        };
        let arena_batch = |ws: &mut PlanWorkspace| {
            for (v, xf) in xs_batch.iter().enumerate() {
                plan.load_full(ws, v, black_box(xf));
            }
            plan.compute(ws, PLAN_BATCH, None)
        };
        let ternary = legacy();
        group.throughput(Throughput::Elements(ternary));
        group.bench_with_input(BenchmarkId::new("owned_blocks", n), &n, |bench, _| {
            bench.iter(&mut legacy)
        });
        group.bench_with_input(BenchmarkId::new("plan_arena", n), &n, |bench, _| {
            bench.iter(|| arena(&mut ws))
        });
        group.bench_with_input(BenchmarkId::new("plan_arena_x8", n), &n, |bench, _| {
            bench.iter(|| arena_batch(&mut ws_batch))
        });

        let (ns_legacy, t_legacy) = measure(&mut legacy);
        record(rows, "owned_blocks", n, Some(q), ns_legacy, t_legacy);
        let (ns_plan, t_plan) = measure(|| arena(&mut ws));
        assert_eq!(t_plan, t_legacy, "q={q}: plan and legacy ternary counts must agree");
        record(rows, "plan_arena", n, Some(q), ns_plan, t_plan);
        let (ns_batch, t_batch) = measure(|| arena_batch(&mut ws_batch));
        assert_eq!(t_batch, PLAN_BATCH as u64 * t_legacy, "q={q}: batched ternary count");
        record(rows, "plan_arena_x8", n, Some(q), ns_batch, t_batch);
    }
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut rows: Vec<Value> = Vec::new();
    let mut group = c.benchmark_group("kernel_throughput");
    group.sample_size(10);
    for n in [128usize, 256, 512] {
        let tensor = bench_tensor(n, 10);
        let x = bench_vector(n);
        group.throughput(Throughput::Elements(ternary(n)));
        group.bench_with_input(BenchmarkId::new("ref_per_point", n), &n, |bench, _| {
            bench.iter(|| sttsv_sym_ref(black_box(&tensor), black_box(&x)))
        });
        group.bench_with_input(BenchmarkId::new("flat_slab", n), &n, |bench, _| {
            bench.iter(|| sttsv_sym(black_box(&tensor), black_box(&x)))
        });
        group.bench_with_input(BenchmarkId::new("blocked_b64", n), &n, |bench, _| {
            bench.iter(|| sttsv_sym_blocked(black_box(&tensor), black_box(&x), 64))
        });
        // Self-timed rows for BENCH_kernels.json (smaller sizes only, to
        // keep the CI bench smoke fast; q = null marks "no partition").
        if n <= 256 {
            let (ns, t) =
                measure(|| sttsv_sym_ref(black_box(&tensor), black_box(&x)).1.ternary_mults);
            record(&mut rows, "ref_per_point", n, None, ns, t);
            let (ns, t) = measure(|| sttsv_sym(black_box(&tensor), black_box(&x)).1.ternary_mults);
            record(&mut rows, "flat_slab", n, None, ns, t);
            let (ns, t) = measure(|| {
                sttsv_sym_blocked(black_box(&tensor), black_box(&x), 64).1.ternary_mults
            });
            record(&mut rows, "blocked_b64", n, None, ns, t);
        }
    }
    group.finish();

    let mut group = c.benchmark_group("kernel_batched");
    group.sample_size(10);
    for n in [128usize, 256] {
        let tensor = bench_tensor(n, 12);
        let batch = 8usize;
        let xs: Vec<Vec<f64>> = (0..batch)
            .map(|v| (0..n).map(|i| ((i * 3 + v + 1) as f64 * 0.017).sin()).collect())
            .collect();
        group.throughput(Throughput::Elements(batch as u64 * ternary(n)));
        group.bench_with_input(BenchmarkId::new("independent_x8", n), &n, |bench, _| {
            bench.iter(|| {
                xs.iter().map(|x| sttsv_sym(black_box(&tensor), black_box(x))).collect::<Vec<_>>()
            })
        });
        group.bench_with_input(BenchmarkId::new("multi_x8", n), &n, |bench, _| {
            bench.iter(|| sttsv_sym_multi(black_box(&tensor), black_box(&xs)))
        });
        if n <= 256 {
            let (ns, t) =
                measure(|| sttsv_sym_multi(black_box(&tensor), black_box(&xs)).1.ternary_mults);
            record(&mut rows, "multi_x8", n, None, ns, t);
        }
    }
    group.finish();

    bench_plan(c, &mut rows);

    let json = Value::object()
        .with("benchmark", "kernels")
        .with("flops_model", "3 flops per ternary multiplication (2 mul + 1 accumulate)")
        .with("kernel_isa", kernel_isa())
        .with("results", Value::Array(rows));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, json.to_string_pretty() + "\n").expect("write BENCH_kernels.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
