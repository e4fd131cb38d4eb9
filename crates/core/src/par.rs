//! Shared-memory parallel STTSV kernels on the [`symtensor_pool`]
//! work-stealing pool.
//!
//! These sit *under* the distributed layer (`symtensor-parallel`): each
//! simulated rank — or a standalone serving process — can run its local
//! tetrahedral work across OS threads. The decomposition is **row panels**:
//! contiguous ranges of the slowest index `i`, each covering the packed
//! rows `(i, j)` for `j ≤ i` in full, so every panel is one contiguous
//! slice of [`SymTensor3::packed`] walked by the same flat cursor as
//! [`crate::seq::sttsv_sym`].
//!
//! # Determinism
//!
//! [`row_panels`] is a function of `n` **only** — never of the thread
//! count — and per-panel partial `y` vectors are combined with the fixed
//! pairwise [`tree_reduce`]. Results and [`OpCount`]s are therefore
//! bit-identical run-to-run *and across thread counts*; agreement with the
//! sequential [`crate::seq::sttsv_sym`] is up to floating-point summation
//! order only (identical [`OpCount`]s).

use crate::seq::{row_segment, OpCount};
use crate::storage::{tet, SymTensor3};
use std::ops::Range;
use symtensor_pool::tree_reduce;
pub use symtensor_pool::Pool;

/// Minimum tetrahedron points per panel: below this, the per-panel
/// bookkeeping (a full-length `y` accumulator + a reduction step) costs
/// more than the panel's arithmetic, so small problems get few panels.
const PANEL_MIN_POINTS: u64 = 2048;

/// Hard cap on the panel count, bounding reduction work and per-call
/// allocation (`panels · n` accumulator words) for huge `n`.
const MAX_PANELS: usize = 64;

/// Balanced row-panel decomposition of the lower tetrahedron `i ≥ j ≥ k`
/// for dimension `n`: contiguous `i`-ranges whose point counts
/// (`Σ (i+1)(i+2)/2`) are proportionally equal, cut greedily.
///
/// The decomposition depends only on `n` — not on thread count — which is
/// what makes the parallel kernels bit-deterministic across thread counts
/// (the reduction tree shape is fixed by the panel count). Panels are
/// non-empty, disjoint, in order, and cover `0..n`; there are at most
/// 64 of them and small tetrahedra get a single panel.
pub fn row_panels(n: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let total = crate::seq::lower_tetra_points(n);
    let panels =
        usize::try_from(total / PANEL_MIN_POINTS).unwrap_or(MAX_PANELS).clamp(1, MAX_PANELS).min(n);
    let mut out = Vec::with_capacity(panels);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut cut = 1u64;
    for i in 0..n {
        let iu = i as u64;
        acc += (iu + 1) * (iu + 2) / 2;
        // Close the current panel once it reaches its proportional share
        // of the total, leaving at least one row for every later panel.
        if out.len() + 1 < panels && i + 1 < n && acc * panels as u64 >= cut * total {
            out.push(start..i + 1);
            start = i + 1;
            cut += 1;
        }
    }
    out.push(start..n);
    out
}

/// One panel's flat-slab pass: rows `i ∈ rows`, all `(j, k)`, cursor
/// starting at `tet(rows.start)`; accumulates into a fresh full-length `y`.
fn panel_pass(tensor: &SymTensor3, x: &[f64], rows: Range<usize>) -> (Vec<f64>, OpCount) {
    let n = tensor.dim();
    let packed = tensor.packed();
    let mut y = vec![0.0; n];
    let mut ops = OpCount::default();
    let mut pos = tet(rows.start);
    for i in rows {
        for j in 0..=i {
            let row = &packed[pos..pos + j + 1];
            ops.ternary_mults += row_segment(row, i, j, 0, x, &mut y);
            ops.points += (j + 1) as u64;
            pos += j + 1;
        }
    }
    (y, ops)
}

/// Merge two `(y, ops)` partials: elementwise add + [`OpCount::absorb`].
fn merge(
    (mut ya, mut oa): (Vec<f64>, OpCount),
    (yb, ob): (Vec<f64>, OpCount),
) -> (Vec<f64>, OpCount) {
    for (a, b) in ya.iter_mut().zip(&yb) {
        *a += b;
    }
    oa.absorb(&ob);
    (ya, oa)
}

/// Algorithm 4 STTSV parallelized over row panels on `pool`.
///
/// Each panel computes into its own full-length `y` accumulator (no
/// sharing, no atomics); partials are combined in fixed panel order by
/// [`tree_reduce`]. Output and [`OpCount`] are bit-identical run-to-run
/// and across thread counts (see module docs), and the [`OpCount`] equals
/// the sequential kernel's exactly: `n²(n+1)/2` ternary multiplications,
/// `n(n+1)(n+2)/6` points.
pub fn sttsv_sym_par(tensor: &SymTensor3, x: &[f64], pool: &Pool) -> (Vec<f64>, OpCount) {
    let n = tensor.dim();
    assert_eq!(x.len(), n, "vector length must match tensor dimension");
    let panels = row_panels(n);
    if panels.len() <= 1 {
        // Single panel: identical to the sequential walk, skip the scatter.
        return crate::seq::sttsv_sym(tensor, x);
    }
    let partials = pool.run_chunks(panels.len(), |p| panel_pass(tensor, x, panels[p].clone()));
    tree_reduce(partials, merge).expect("at least one panel")
}

/// One panel's batched pass: like [`panel_pass`] but contracting the slab
/// against every vector in `xs` (slab streamed once per panel).
fn panel_pass_multi(
    tensor: &SymTensor3,
    xs: &[Vec<f64>],
    rows: Range<usize>,
) -> (Vec<Vec<f64>>, OpCount) {
    let n = tensor.dim();
    let packed = tensor.packed();
    let mut ys = vec![vec![0.0; n]; xs.len()];
    let mut ops = OpCount::default();
    let mut pos = tet(rows.start);
    for i in rows {
        for j in 0..=i {
            let row = &packed[pos..pos + j + 1];
            for (x, y) in xs.iter().zip(&mut ys) {
                ops.ternary_mults += row_segment(row, i, j, 0, x, y);
            }
            ops.points += (j + 1) as u64;
            pos += j + 1;
        }
    }
    (ys, ops)
}

/// Batched parallel STTSV: row panels across `pool`, each panel streaming
/// its slab slice once against all `B = xs.len()` vectors — the
/// shared-memory serving path combining [`crate::seq::sttsv_sym_multi`]'s
/// tensor-traffic amortization with panel parallelism.
///
/// Per vector `b`, `ys[b]` is **bit-identical** to
/// `sttsv_sym_par(tensor, &xs[b], pool).0` (same panels, same reduction
/// tree), hence deterministic across runs and thread counts. [`OpCount`]:
/// `ternary_mults = B·n²(n+1)/2`, `points = n(n+1)(n+2)/6` (the slab is
/// traversed once, as in the sequential batched kernel).
pub fn sttsv_sym_par_multi(
    tensor: &SymTensor3,
    xs: &[Vec<f64>],
    pool: &Pool,
) -> (Vec<Vec<f64>>, OpCount) {
    let n = tensor.dim();
    for (b, x) in xs.iter().enumerate() {
        assert_eq!(x.len(), n, "vector {b} length must match tensor dimension");
    }
    let panels = row_panels(n);
    if panels.len() <= 1 {
        return crate::seq::sttsv_sym_multi(tensor, xs);
    }
    let partials =
        pool.run_chunks(panels.len(), |p| panel_pass_multi(tensor, xs, panels[p].clone()));
    tree_reduce(partials, |(mut ya, mut oa), (yb, ob)| {
        for (va, vb) in ya.iter_mut().zip(&yb) {
            for (a, b) in va.iter_mut().zip(vb) {
                *a += b;
            }
        }
        oa.absorb(&ob);
        (ya, oa)
    })
    .expect("at least one panel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_symmetric;
    use crate::seq::{lower_tetra_points, sttsv_sym, sttsv_sym_multi, sym_ternary_mults};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn panels_partition_rows() {
        for n in [0usize, 1, 2, 3, 17, 64, 200, 513] {
            let panels = row_panels(n);
            if n == 0 {
                assert!(panels.is_empty());
                continue;
            }
            assert!(panels.len() <= MAX_PANELS);
            let mut next = 0usize;
            for r in &panels {
                assert_eq!(r.start, next, "n={n}: panels must be contiguous");
                assert!(r.start < r.end, "n={n}: panels must be non-empty");
                next = r.end;
            }
            assert_eq!(next, n, "n={n}: panels must cover 0..n");
        }
    }

    #[test]
    fn panels_are_balanced() {
        // No panel should exceed ~2x the ideal share (+ one row's weight
        // of greedy rounding slack) for sizes that actually split.
        for n in [100usize, 256, 400] {
            let panels = row_panels(n);
            assert!(panels.len() > 1, "n={n} should split");
            let total = lower_tetra_points(n);
            let ideal = total / panels.len() as u64;
            for r in &panels {
                let w: u64 = r.clone().map(|i| ((i as u64 + 1) * (i as u64 + 2)) / 2).sum();
                let max_row = (n as u64) * (n as u64 + 1) / 2;
                assert!(w <= 2 * ideal + max_row, "n={n} panel {r:?} weight {w} vs ideal {ideal}");
            }
        }
    }

    #[test]
    fn par_matches_seq_and_counts() {
        let mut rng = StdRng::seed_from_u64(70);
        let pool = Pool::new(4);
        for n in [1usize, 3, 9, 33, 64] {
            let t = random_symmetric(n, &mut rng);
            let x: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.29).sin()).collect();
            let (y_seq, ops_seq) = sttsv_sym(&t, &x);
            let (y_par, ops_par) = sttsv_sym_par(&t, &x, &pool);
            assert_eq!(ops_par, ops_seq, "n={n}");
            assert_eq!(ops_par.ternary_mults, sym_ternary_mults(n));
            for i in 0..n {
                assert!(
                    (y_par[i] - y_seq[i]).abs() <= 1e-12 * (1.0 + y_seq[i].abs()),
                    "n={n} y[{i}]: {} vs {}",
                    y_par[i],
                    y_seq[i]
                );
            }
        }
    }

    #[test]
    fn par_is_bit_identical_across_thread_counts_and_runs() {
        let mut rng = StdRng::seed_from_u64(71);
        // n large enough that row_panels really splits.
        let n = 48;
        let t = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| ((i * 5 + 2) as f64 * 0.13).cos()).collect();
        let (y_ref, ops_ref) = sttsv_sym_par(&t, &x, &Pool::new(1));
        for threads in [1usize, 2, 3, 5, 8] {
            let pool = Pool::new(threads);
            for run in 0..3 {
                let (y, ops) = sttsv_sym_par(&t, &x, &pool);
                assert_eq!(ops, ops_ref, "threads={threads} run={run}");
                for i in 0..n {
                    assert_eq!(
                        y[i].to_bits(),
                        y_ref[i].to_bits(),
                        "threads={threads} run={run} y[{i}]"
                    );
                }
            }
        }
    }

    #[test]
    fn par_multi_matches_par_per_vector() {
        let mut rng = StdRng::seed_from_u64(72);
        let n = 40;
        let t = random_symmetric(n, &mut rng);
        let xs: Vec<Vec<f64>> =
            (0..5).map(|b| (0..n).map(|i| ((i + 11 * b) as f64 * 0.17).sin()).collect()).collect();
        let pool = Pool::new(3);
        let (ys, ops) = sttsv_sym_par_multi(&t, &xs, &pool);
        assert_eq!(ys.len(), xs.len());
        for (b, x) in xs.iter().enumerate() {
            let (y_single, _) = sttsv_sym_par(&t, x, &pool);
            assert_eq!(ys[b], y_single, "vector {b} must match sttsv_sym_par bitwise");
        }
        assert_eq!(ops.ternary_mults, xs.len() as u64 * sym_ternary_mults(n));
        assert_eq!(ops.points, lower_tetra_points(n));
    }

    #[test]
    fn par_multi_agrees_with_seq_multi() {
        let mut rng = StdRng::seed_from_u64(73);
        let n = 29;
        let t = random_symmetric(n, &mut rng);
        let xs: Vec<Vec<f64>> =
            (0..3).map(|b| (0..n).map(|i| ((i * 2 + b) as f64 * 0.31).cos()).collect()).collect();
        let (ys_seq, ops_seq) = sttsv_sym_multi(&t, &xs);
        let (ys_par, ops_par) = sttsv_sym_par_multi(&t, &xs, &Pool::new(4));
        assert_eq!(ops_par, ops_seq);
        for b in 0..xs.len() {
            for i in 0..n {
                assert!(
                    (ys_par[b][i] - ys_seq[b][i]).abs() <= 1e-12 * (1.0 + ys_seq[b][i].abs()),
                    "b={b} y[{i}]"
                );
            }
        }
    }

    #[test]
    fn par_empty_and_tiny() {
        let pool = Pool::new(8);
        let t0 = SymTensor3::zeros(0);
        let (y0, ops0) = sttsv_sym_par(&t0, &[], &pool);
        assert!(y0.is_empty());
        assert_eq!(ops0, OpCount::default());

        let mut t1 = SymTensor3::zeros(1);
        t1.set(0, 0, 0, 2.0);
        let (y1, ops1) = sttsv_sym_par(&t1, &[3.0], &pool);
        assert_eq!(y1, vec![18.0]);
        assert_eq!(ops1.ternary_mults, 1);

        let (ys, ops) = sttsv_sym_par_multi(&t1, &[], &pool);
        assert!(ys.is_empty());
        assert_eq!(ops.ternary_mults, 0);
    }
}
