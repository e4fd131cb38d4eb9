//! Sequential STTSV kernels: the paper's Algorithm 3 and Algorithm 4.
//!
//! STTSV computes `y = 𝓐 ×₂ x ×₃ x`, i.e. `y_i = Σ_{j,k} a_{ijk} x_j x_k`.
//! The unit of work is the **ternary multiplication** `a_{ijk}·x_j·x_k`.
//!
//! * [`sttsv_naive`] (Algorithm 3) visits the full `n³` iteration space and
//!   performs `n³` ternary multiplications.
//! * [`sttsv_sym`] (Algorithm 4) visits only the lower tetrahedron
//!   (`n(n+1)(n+2)/6` points) and performs all updates an element
//!   contributes at once — `n²(n+1)/2` ternary multiplications, roughly half
//!   of Algorithm 3. Its implementation is a **flat-slab walk**: the packed
//!   layout `tet(i)+tri(j)+k` *is* the `(i ≥ j ≥ k)` iteration order, so the
//!   kernel marches a cursor straight through [`SymTensor3::packed`] and
//!   never evaluates the `packed_index` polynomial per point; the `i == j` /
//!   `j == k` diagonal cases are peeled out of the inner loop into per-row
//!   epilogues (see [`row_segment`]).
//! * [`sttsv_sym_ref`] is the straightforward per-point case-analysis
//!   kernel (one `packed_index` evaluation per tetrahedron point). It is the
//!   validation reference and the baseline the flat-slab rewrite is
//!   benchmarked against.
//! * [`sttsv_sym_multi`] batches `B` contractions against **one** pass over
//!   the packed slab — the serving/throughput path: the tensor (the big
//!   operand, `Θ(n³)` words) is streamed once and amortized across all
//!   vectors.
//!
//! All kernels return an [`OpCount`] so tests and benchmarks can verify the
//! paper's operation counts exactly.

use crate::storage::SymTensor3;

/// Exact operation counts for a kernel invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Ternary multiplications `a·x·x` performed (the paper's work unit).
    pub ternary_mults: u64,
    /// Iteration-space points visited.
    pub points: u64,
}

impl OpCount {
    /// Floating-point operations implied by the ternary-multiplication
    /// count: each `y += a·x·x` is two multiplies and one add, so
    /// `flops = 3 · ternary_mults`. (The symmetric kernel's occasional
    /// `2.0·a` scaling is folded into the same model — the paper's §7.1
    /// computation-cost formulas count ternary multiplications, and this is
    /// the standard flop conversion used when reporting them.)
    pub fn flops(&self) -> u64 {
        3 * self.ternary_mults
    }

    /// Componentwise sum — accumulate counts across kernel invocations
    /// (e.g. the STTSV calls of a HOPM iteration loop).
    pub fn merged(&self, other: &OpCount) -> OpCount {
        OpCount {
            ternary_mults: self.ternary_mults + other.ternary_mults,
            points: self.points + other.points,
        }
    }

    /// In-place [`OpCount::merged`].
    pub fn absorb(&mut self, other: &OpCount) {
        *self = self.merged(other);
    }
}

/// Algorithm 3: naive STTSV over the full cube, ignoring symmetry.
///
/// Performs exactly `n³` ternary multiplications.
pub fn sttsv_naive(tensor: &SymTensor3, x: &[f64]) -> (Vec<f64>, OpCount) {
    let n = tensor.dim();
    assert_eq!(x.len(), n, "vector length must match tensor dimension");
    let mut y = vec![0.0; n];
    let mut ops = OpCount::default();
    for (i, yi) in y.iter_mut().enumerate() {
        for j in 0..n {
            for k in 0..n {
                *yi += tensor.get(i, j, k) * x[j] * x[k];
                ops.ternary_mults += 1;
                ops.points += 1;
            }
        }
    }
    (y, ops)
}

/// The Algorithm 4 updates for one contiguous run of `k`-values of packed
/// row `(i, j)` — the shared inner loop of every symmetric kernel in this
/// crate (flat, blocked and batched).
///
/// `slab` is `packed[tet(i)+tri(j)+k0 ..]` truncated to the run; it covers
/// global indices `(i, j, k)` for `k ∈ k0 .. k0+slab.len()`, with
/// `k0 + slab.len() ≤ j + 1`. The diagonal case analysis of Algorithm 4 is
/// peeled out of the per-point loop:
///
/// * `i > j`, `k < j` — strictly lower tetrahedral, 3 updates per point.
///   The `y[i]`/`y[j]` contributions share the dot product `Σ_k a·x_k`, so
///   the inner loop is one fused multiply pass over the slab.
/// * `i > j`, `k == j` — 2 updates (epilogue, at most once per row).
/// * `i == j`, `k < i` — 2 updates per point, same dot-product fusion.
/// * `i == j == k` — the central diagonal, 1 update (epilogue).
///
/// Returns the exact ternary-multiplication count (3/2/1 per point as
/// above), identical to what the per-point reference kernel counts.
#[inline(always)]
pub fn row_segment(slab: &[f64], i: usize, j: usize, k0: usize, x: &[f64], y: &mut [f64]) -> u64 {
    debug_assert!(j <= i && k0 + slab.len() <= j + 1);
    let xi = x[i];
    let xj = x[j];
    if i != j {
        // Strict ks: k in k0 .. min(k0+len, j).
        let strict = slab.len().min(j - k0);
        let pref = 2.0 * xi * xj;
        let mut dot = 0.0;
        for ((&a, &xv), yv) in
            slab[..strict].iter().zip(&x[k0..k0 + strict]).zip(&mut y[k0..k0 + strict])
        {
            dot += a * xv;
            *yv += pref * a;
        }
        y[i] += 2.0 * xj * dot;
        y[j] += 2.0 * xi * dot;
        let mut ternary = 3 * strict as u64;
        if k0 + slab.len() == j + 1 {
            // k == j epilogue: i > j == k.
            let a = slab[strict];
            y[i] += a * xj * xj;
            y[j] += 2.0 * a * xi * xj;
            ternary += 2;
        }
        ternary
    } else {
        // i == j row: ks k < i get 2 updates, the k == i point gets 1.
        let strict = slab.len().min(i - k0);
        let sq = xi * xi;
        let mut dot = 0.0;
        for ((&a, &xv), yv) in
            slab[..strict].iter().zip(&x[k0..k0 + strict]).zip(&mut y[k0..k0 + strict])
        {
            dot += a * xv;
            *yv += sq * a;
        }
        y[i] += 2.0 * xi * dot;
        let mut ternary = 2 * strict as u64;
        if k0 + slab.len() == i + 1 {
            // Central diagonal epilogue: i == j == k.
            y[i] += slab[strict] * sq;
            ternary += 1;
        }
        ternary
    }
}

/// Algorithm 4: STTSV exploiting the symmetric structure, as a flat-slab
/// walk over the packed lower tetrahedron.
///
/// Visits the lower tetrahedron `i ≥ j ≥ k` and, per element, performs every
/// update that element contributes to `y` (3 for strictly distinct indices,
/// 2 on non-central diagonals, 1 at the central diagonal). Performs exactly
/// `n²(n+1)/2` ternary multiplications. The cursor `pos` marches linearly
/// through [`SymTensor3::packed`]; no per-point index arithmetic.
///
/// ```
/// use symtensor_core::{SymTensor3, seq::sttsv_sym};
/// // A = v∘v∘v with v = (1, 2): y = (vᵀx)²·v.
/// let mut a = SymTensor3::zeros(2);
/// for i in 0..2 {
///     for j in 0..=i {
///         for k in 0..=j {
///             a.set(i, j, k, [1.0, 2.0][i] * [1.0, 2.0][j] * [1.0, 2.0][k]);
///         }
///     }
/// }
/// let (y, ops) = sttsv_sym(&a, &[1.0, 1.0]);
/// assert_eq!(y, vec![9.0, 18.0]);          // (1+2)² · v
/// assert_eq!(ops.ternary_mults, 2 * 2 * 3 / 2);
/// ```
pub fn sttsv_sym(tensor: &SymTensor3, x: &[f64]) -> (Vec<f64>, OpCount) {
    let n = tensor.dim();
    assert_eq!(x.len(), n, "vector length must match tensor dimension");
    let mut y = vec![0.0; n];
    let mut ops = OpCount::default();
    let packed = tensor.packed();
    let mut pos = 0;
    for i in 0..n {
        for j in 0..=i {
            let row = &packed[pos..pos + j + 1];
            ops.ternary_mults += row_segment(row, i, j, 0, x, &mut y);
            ops.points += (j + 1) as u64;
            pos += j + 1;
        }
    }
    debug_assert_eq!(pos, packed.len());
    (y, ops)
}

/// The per-point reference implementation of Algorithm 4 (the seed kernel
/// the flat-slab [`sttsv_sym`] replaced): one [`SymTensor3::get_sorted`]
/// (and hence one `packed_index` polynomial evaluation) per tetrahedron
/// point, with the full diagonal case analysis inline.
///
/// Kept as the ground truth for property tests and as the baseline of the
/// `kernels` benchmark; results agree with [`sttsv_sym`] up to
/// floating-point summation order, and [`OpCount`]s are identical.
pub fn sttsv_sym_ref(tensor: &SymTensor3, x: &[f64]) -> (Vec<f64>, OpCount) {
    let n = tensor.dim();
    assert_eq!(x.len(), n, "vector length must match tensor dimension");
    let mut y = vec![0.0; n];
    let mut ops = OpCount::default();
    for i in 0..n {
        for j in 0..=i {
            for k in 0..=j {
                let a = tensor.get_sorted(i, j, k);
                ops.points += 1;
                if i != j && j != k {
                    // Strictly lower tetrahedral: each of the three output
                    // slots receives the contribution of two permutations.
                    y[i] += 2.0 * a * x[j] * x[k];
                    y[j] += 2.0 * a * x[i] * x[k];
                    y[k] += 2.0 * a * x[i] * x[j];
                    ops.ternary_mults += 3;
                } else if i == j && j != k {
                    y[i] += 2.0 * a * x[j] * x[k];
                    y[k] += a * x[i] * x[j];
                    ops.ternary_mults += 2;
                } else if i != j && j == k {
                    y[i] += a * x[j] * x[k];
                    y[j] += 2.0 * a * x[i] * x[k];
                    ops.ternary_mults += 2;
                } else {
                    // Central diagonal i == j == k.
                    y[i] += a * x[j] * x[k];
                    ops.ternary_mults += 1;
                }
            }
        }
    }
    (y, ops)
}

/// Batched STTSV: contracts **one** flat-slab pass over the tensor against
/// `B = xs.len()` input vectors at once, returning the `B` outputs.
///
/// This is the serving/throughput kernel: the tensor (`n(n+1)(n+2)/6`
/// packed words, the dominant memory traffic) is streamed through the cache
/// hierarchy once and amortized over all `B` contractions, where `B`
/// independent [`sttsv_sym`] calls would stream it `B` times.
///
/// Per vector, the arithmetic is performed in exactly the order of
/// [`sttsv_sym`], so `ys[b]` is **bit-identical** to
/// `sttsv_sym(tensor, &xs[b]).0`.
///
/// The returned [`OpCount`] reports the batch totals: `ternary_mults` is
/// `B · n²(n+1)/2` (every contraction's multiplications really happen);
/// `points` is `n(n+1)(n+2)/6` — the tensor slab is visited **once**, which
/// is the entire point of batching.
pub fn sttsv_sym_multi(tensor: &SymTensor3, xs: &[Vec<f64>]) -> (Vec<Vec<f64>>, OpCount) {
    let n = tensor.dim();
    for (b, x) in xs.iter().enumerate() {
        assert_eq!(x.len(), n, "vector {b} length must match tensor dimension");
    }
    let mut ys = vec![vec![0.0; n]; xs.len()];
    let mut ops = OpCount::default();
    let packed = tensor.packed();
    let mut pos = 0;
    for i in 0..n {
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

/// The paper's count of ternary multiplications for Algorithm 3: `n³`.
pub fn naive_ternary_mults(n: usize) -> u64 {
    (n as u64).pow(3)
}

/// The paper's count of ternary multiplications for Algorithm 4:
/// `n²(n+1)/2`.
pub fn sym_ternary_mults(n: usize) -> u64 {
    let n = n as u64;
    n * n * (n + 1) / 2
}

/// Points in the lower tetrahedral iteration space: `n(n+1)(n+2)/6`.
pub fn lower_tetra_points(n: usize) -> u64 {
    let n = n as u64;
    n * (n + 1) * (n + 2) / 6
}

/// Points in the strict lower tetrahedron: `n(n−1)(n−2)/6`.
pub fn strict_lower_tetra_points(n: usize) -> u64 {
    let n = n as u64;
    if n < 3 {
        0
    } else {
        n * (n - 1) * (n - 2) / 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_symmetric;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (idx, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "index {idx}: {x} vs {y}");
        }
    }

    #[test]
    fn algorithms_agree_on_random_tensors() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 3, 5, 8, 13, 21] {
            let t = random_symmetric(n, &mut rng);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
            let (y_naive, _) = sttsv_naive(&t, &x);
            let (y_sym, _) = sttsv_sym(&t, &x);
            assert_close(&y_naive, &y_sym, 1e-12);
        }
    }

    #[test]
    fn flat_slab_matches_reference_kernel() {
        let mut rng = StdRng::seed_from_u64(43);
        for n in [1usize, 2, 3, 4, 6, 9, 17, 32] {
            let t = random_symmetric(n, &mut rng);
            let x: Vec<f64> = (0..n).map(|i| ((i * 3 + 1) as f64 * 0.11).sin()).collect();
            let (y_ref, ops_ref) = sttsv_sym_ref(&t, &x);
            let (y_flat, ops_flat) = sttsv_sym(&t, &x);
            assert_eq!(ops_flat, ops_ref, "n={n}: OpCounts must be identical");
            assert_close(&y_ref, &y_flat, 1e-12);
        }
    }

    #[test]
    fn operation_counts_match_paper() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 2, 3, 4, 7, 10, 16] {
            let t = random_symmetric(n, &mut rng);
            let x = vec![1.0; n];
            let (_, naive_ops) = sttsv_naive(&t, &x);
            let (_, sym_ops) = sttsv_sym(&t, &x);
            let (_, ref_ops) = sttsv_sym_ref(&t, &x);
            assert_eq!(naive_ops.ternary_mults, naive_ternary_mults(n), "naive n={n}");
            assert_eq!(sym_ops.ternary_mults, sym_ternary_mults(n), "sym n={n}");
            assert_eq!(sym_ops.points, lower_tetra_points(n), "points n={n}");
            assert_eq!(ref_ops, sym_ops, "reference kernel counts n={n}");
        }
    }

    #[test]
    fn sym_does_roughly_half_the_work() {
        let n = 50;
        assert!(sym_ternary_mults(n) * 2 <= naive_ternary_mults(n) + naive_ternary_mults(n) / 10);
    }

    #[test]
    fn identity_like_tensor() {
        // a_{iii} = 1, zero elsewhere: y_i = x_i².
        let n = 6;
        let mut t = SymTensor3::zeros(n);
        for i in 0..n {
            t.set(i, i, i, 1.0);
        }
        let x: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let (y, _) = sttsv_sym(&t, &x);
        for i in 0..n {
            assert_eq!(y[i], x[i] * x[i]);
        }
    }

    #[test]
    fn rank_one_tensor_contracts_exactly() {
        // A = v∘v∘v  =>  y = (vᵀx)² v.
        let n = 8;
        let v: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).sqrt()).collect();
        let mut t = SymTensor3::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                for k in 0..=j {
                    t.set(i, j, k, v[i] * v[j] * v[k]);
                }
            }
        }
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let dot: f64 = v.iter().zip(&x).map(|(a, b)| a * b).sum();
        let (y, _) = sttsv_sym(&t, &x);
        for i in 0..n {
            assert!((y[i] - dot * dot * v[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn zero_vector_gives_zero_output() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = random_symmetric(7, &mut rng);
        let (y, _) = sttsv_sym(&t, &[0.0; 7]);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn linearity_in_the_tensor() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 6;
        let a = random_symmetric(n, &mut rng);
        let b = random_symmetric(n, &mut rng);
        let sum = SymTensor3::from_packed(
            n,
            a.packed().iter().zip(b.packed()).map(|(u, v)| u + v).collect(),
        );
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 0.5).collect();
        let (ya, _) = sttsv_sym(&a, &x);
        let (yb, _) = sttsv_sym(&b, &x);
        let (ysum, _) = sttsv_sym(&sum, &x);
        for i in 0..n {
            assert!((ysum[i] - ya[i] - yb[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn tiny_dimensions() {
        let t = SymTensor3::zeros(0);
        let (y, ops) = sttsv_sym(&t, &[]);
        assert!(y.is_empty());
        assert_eq!(ops.ternary_mults, 0);

        let mut t1 = SymTensor3::zeros(1);
        t1.set(0, 0, 0, 3.0);
        let (y1, ops1) = sttsv_sym(&t1, &[2.0]);
        assert_eq!(y1, vec![12.0]);
        assert_eq!(ops1.ternary_mults, 1);
    }

    #[test]
    fn multi_is_bitwise_identical_to_single_calls() {
        let mut rng = StdRng::seed_from_u64(44);
        for n in [1usize, 5, 12, 23] {
            let t = random_symmetric(n, &mut rng);
            let xs: Vec<Vec<f64>> = (0..4)
                .map(|b| (0..n).map(|i| ((i + b * 7 + 1) as f64 * 0.19).sin()).collect())
                .collect();
            let (ys, ops) = sttsv_sym_multi(&t, &xs);
            assert_eq!(ys.len(), xs.len());
            for (b, x) in xs.iter().enumerate() {
                let (y_single, _) = sttsv_sym(&t, x);
                assert_eq!(ys[b], y_single, "n={n} vector {b} must match bitwise");
            }
            // Batch totals: B× the mults, 1× the slab points.
            assert_eq!(ops.ternary_mults, xs.len() as u64 * sym_ternary_mults(n));
            assert_eq!(ops.points, lower_tetra_points(n));
        }
    }

    #[test]
    fn multi_empty_batch() {
        let t = SymTensor3::zeros(5);
        let (ys, ops) = sttsv_sym_multi(&t, &[]);
        assert!(ys.is_empty());
        assert_eq!(ops.ternary_mults, 0);
        assert_eq!(ops.points, lower_tetra_points(5));
    }
}

/// Cache-blocked Algorithm 4: identical arithmetic points (same iteration
/// space, same case analysis, same ternary-multiplication count) executed
/// in tetrahedral-block order — blocks `(I ≥ J ≥ K)` of size `b`, all
/// points inside a block before the next. This is the sequential twin of
/// the parallel tetrahedral distribution: one block touches only `3b`
/// entries of each vector for up to `b³` tensor entries, which is what
/// `symtensor-cachesim` measures and the paper's Lemma 4.2 bounds.
///
/// Each `(i, j)` row intersects a block in one contiguous `k`-run of the
/// packed slab, so the inner loop is the same [`row_segment`] walk as
/// [`sttsv_sym`] — the only per-row index arithmetic is one `tet(i)+tri(j)`
/// base offset, amortized over the run. With `b ≥ n` there is a single
/// block covering every full row and the kernel degenerates to
/// [`sttsv_sym`] exactly (bit-identical output).
///
/// Results can differ from [`sttsv_sym`] only by floating-point summation
/// order (each row's dot product is accumulated per `k`-run).
pub fn sttsv_sym_blocked(tensor: &SymTensor3, x: &[f64], b: usize) -> (Vec<f64>, OpCount) {
    use crate::storage::{tet, tri};
    let n = tensor.dim();
    assert_eq!(x.len(), n, "vector length must match tensor dimension");
    assert!(b >= 1, "block size must be positive");
    let mut y = vec![0.0; n];
    let mut ops = OpCount::default();
    let packed = tensor.packed();
    let m = n.div_ceil(b);
    let range = |blk: usize| blk * b..((blk + 1) * b).min(n);
    for bi in 0..m {
        for bj in 0..=bi {
            for bk in 0..=bj {
                let k_lo = bk * b;
                for i in range(bi) {
                    let row_base = tet(i);
                    for j in range(bj) {
                        if j > i {
                            break;
                        }
                        if k_lo > j {
                            break;
                        }
                        let k_hi = ((bk + 1) * b).min(n).min(j + 1);
                        let base = row_base + tri(j);
                        let row = &packed[base + k_lo..base + k_hi];
                        ops.ternary_mults += row_segment(row, i, j, k_lo, x, &mut y);
                        ops.points += (k_hi - k_lo) as u64;
                    }
                }
            }
        }
    }
    (y, ops)
}

#[cfg(test)]
mod blocked_tests {
    use super::*;
    use crate::generate::random_symmetric;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn blocked_matches_rowmajor_for_all_block_sizes() {
        let mut rng = StdRng::seed_from_u64(60);
        for n in [1usize, 7, 16, 25] {
            let t = random_symmetric(n, &mut rng);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
            let (y_ref, ops_ref) = sttsv_sym(&t, &x);
            for b in [1usize, 2, 3, 5, 8, n.max(1)] {
                let (y_blk, ops_blk) = sttsv_sym_blocked(&t, &x, b);
                assert_eq!(ops_blk, ops_ref, "n={n} b={b}: op counts must be identical");
                for i in 0..n {
                    assert!(
                        (y_blk[i] - y_ref[i]).abs() < 1e-12 * (1.0 + y_ref[i].abs()),
                        "n={n} b={b} y[{i}]"
                    );
                }
            }
        }
    }

    #[test]
    fn block_size_larger_than_n_degenerates_to_rowmajor() {
        let mut rng = StdRng::seed_from_u64(61);
        let n = 9;
        let t = random_symmetric(n, &mut rng);
        let x = vec![0.5; n];
        let (y_big, _) = sttsv_sym_blocked(&t, &x, 100);
        let (y_ref, _) = sttsv_sym(&t, &x);
        assert_eq!(y_big, y_ref);
    }

    #[test]
    fn blocked_matches_per_point_reference_counts() {
        let mut rng = StdRng::seed_from_u64(62);
        let n = 13;
        let t = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).cos()).collect();
        let (_, ops_ref) = sttsv_sym_ref(&t, &x);
        for b in [1usize, 4, 6, 13] {
            let (_, ops_blk) = sttsv_sym_blocked(&t, &x, b);
            assert_eq!(ops_blk, ops_ref, "b={b}");
        }
    }
}
