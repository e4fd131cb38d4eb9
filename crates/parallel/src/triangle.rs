//! Triangle block partitioning for symmetric **matrices** — the 2-D scheme
//! of Beaumont et al. (2022) and Al Daas et al. (2023/2025) that the
//! paper's tetrahedral partitioning generalizes to tensors. Implemented
//! here (communication-optimal parallel SYMV) so the 2-D and 3-D schemes
//! can be compared side by side in the same cost framework.
//!
//! The design is the exact 2-D analogue of Section 6:
//!
//! * row blocks `0..m` with `m = q² + q + 1`, one **processor per line**
//!   of the projective plane `PG(2, q)` (`P = m`);
//! * the off-diagonal matrix block `(I, J)`, `I > J`, is owned by the
//!   *unique* line containing `{I, J}` (here `s = 2`, so no Steiner
//!   ambiguity and no matching is needed for off-diagonal blocks);
//! * diagonal blocks `(I, I)` are assigned by a Hall matching on the
//!   point–line incidence graph (`(q+1)`-regular, so a perfect matching
//!   exists);
//! * vector row block `i` is sharded across the `λ₁ = q + 1` lines
//!   through `i`.
//!
//! Per vector each processor moves `q·n/(q² + q + 1) ≈ n/√P` words, which
//! matches the leading term of the 2-D symmetric lower bound
//! `2·√(n(n−1)/P) − 2n/P` — the SYMV shadow of Theorem 5.2.

use symtensor_core::symmat::SymMatrix;
use symtensor_matching::{hopcroft_karp, BipartiteGraph};
use symtensor_mpsim::{CostReport, Universe};
use symtensor_steiner::plane::{projective_plane, Steiner2};

/// The triangle data distribution for one projective plane and dimension.
#[derive(Clone, Debug)]
pub struct TrianglePartition {
    plane: Steiner2,
    n: usize,
    b: usize,
    lambda1: usize,
    q_sets: Vec<Vec<usize>>,
    /// Owner of each off-diagonal block pair `(i, j)`, `i > j` (by unique
    /// line), addressed as `i(i−1)/2 + j`.
    pair_owner: Vec<usize>,
    /// `d_sets[p]` = the diagonal block owned by processor `p`, if any
    /// (for projective planes `P = m` and every processor owns exactly
    /// one; for other `s = 2` designs, e.g. Steiner triple systems,
    /// `P > m` and some processors own none — Fisher's inequality
    /// guarantees `m ≤ P`, so the Hall matching always exists).
    d_sets: Vec<Option<usize>>,
}

impl TrianglePartition {
    /// Builds the distribution for prime power `q` and dimension `n`
    /// (must be a multiple of `m = q² + q + 1`), using the projective
    /// plane `PG(2, q)`.
    pub fn new(q: u64, n: usize) -> Result<Self, String> {
        Self::from_system(projective_plane(q), n)
    }

    /// Builds the distribution from **any** Steiner `(m, r, 2)` system —
    /// e.g. a Bose triple system — with one processor per block.
    pub fn from_system(plane: Steiner2, n: usize) -> Result<Self, String> {
        plane.verify()?;
        let m = plane.num_points();
        if !n.is_multiple_of(m) {
            return Err(format!("n = {n} is not a multiple of m = {m}"));
        }
        let b = n / m;
        let r = plane.block_size();
        let lambda1 = (m - 1) / (r - 1); // blocks through each point
        let q_sets = plane.point_to_blocks();

        let mut pair_owner = vec![usize::MAX; m * (m - 1) / 2];
        for (line_idx, line) in plane.blocks().iter().enumerate() {
            for x in 0..line.len() {
                for y in x + 1..line.len() {
                    let (hi, lo) = (line[y], line[x]);
                    pair_owner[hi * (hi - 1) / 2 + lo] = line_idx;
                }
            }
        }
        debug_assert!(pair_owner.iter().all(|&o| o != usize::MAX));

        // Diagonal blocks: perfect matching point -> line through it.
        let p_count = plane.num_blocks();
        let mut g = BipartiteGraph::new(m, p_count);
        for (point, lines) in q_sets.iter().enumerate() {
            for &line in lines {
                g.add_edge(point, line);
            }
        }
        let matching = hopcroft_karp(&g);
        let mut d_sets: Vec<Option<usize>> = vec![None; p_count];
        for (point, line) in matching.iter().enumerate() {
            let line = line.ok_or("no diagonal matching (corrupt design)")?;
            debug_assert!(d_sets[line].is_none());
            d_sets[line] = Some(point);
        }
        Ok(TrianglePartition { plane, n, b, lambda1, q_sets, pair_owner, d_sets })
    }

    /// Number of processors `P = q² + q + 1`.
    pub fn num_procs(&self) -> usize {
        self.plane.num_blocks()
    }

    /// Number of row blocks `m` (equal to `P` for projective planes,
    /// smaller than `P` for other designs).
    pub fn num_row_blocks(&self) -> usize {
        self.plane.num_points()
    }

    /// Row-block size `b = n/m`.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Matrix dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// `λ₁ = (m−1)/(r−1)`: processors sharing each row block
    /// (`q + 1` for planes).
    pub fn lambda1(&self) -> usize {
        self.lambda1
    }

    /// `R_p`: the row blocks processor `p` works with (its line's points).
    pub fn r_set(&self, p: usize) -> &[usize] {
        &self.plane.blocks()[p]
    }

    /// `Q_i`: processors requiring row block `i`.
    pub fn q_set(&self, i: usize) -> &[usize] {
        &self.q_sets[i]
    }

    /// Owner of off-diagonal block `(i, j)`, `i ≠ j`.
    pub fn pair_owner(&self, i: usize, j: usize) -> usize {
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        self.pair_owner[hi * (hi - 1) / 2 + lo]
    }

    /// The diagonal block owned by processor `p`, if any.
    pub fn diagonal_of(&self, p: usize) -> Option<usize> {
        self.d_sets[p]
    }

    /// Global index range of row block `i`.
    pub fn block_range(&self, i: usize) -> std::ops::Range<usize> {
        i * self.b..(i + 1) * self.b
    }

    /// Local shard range of row block `i` owned by `p ∈ Q_i`.
    pub fn shard_range(&self, i: usize, p: usize) -> std::ops::Range<usize> {
        let t = self.q_sets[i].binary_search(&p).expect("p must be in Q_i");
        (t * self.b) / self.lambda1..((t + 1) * self.b) / self.lambda1
    }

    /// Verifies the distribution invariants.
    pub fn verify(&self) -> Result<(), String> {
        let m = self.num_row_blocks();
        // Every off-diagonal block's owner contains both indices.
        for i in 0..m {
            for j in 0..i {
                let owner = self.pair_owner(i, j);
                let line = self.r_set(owner);
                if line.binary_search(&i).is_err() || line.binary_search(&j).is_err() {
                    return Err(format!("block ({i},{j}) owner {owner} incompatible"));
                }
            }
        }
        // Diagonal owners contain their index; all diagonals assigned once.
        let mut seen = vec![false; m];
        for p in 0..self.num_procs() {
            let Some(i) = self.d_sets[p] else { continue };
            if self.r_set(p).binary_search(&i).is_err() {
                return Err(format!("diagonal ({i},{i}) owner {p} incompatible"));
            }
            if seen[i] {
                return Err(format!("diagonal {i} assigned twice"));
            }
            seen[i] = true;
        }
        if !seen.iter().all(|&s| s) {
            return Err("some diagonal unassigned".to_string());
        }
        Ok(())
    }
}

/// Result of a distributed SYMV run.
#[derive(Clone, Debug)]
pub struct SymvRun {
    /// The product `y = A·x`.
    pub y: Vec<f64>,
    /// Exact per-rank communication costs.
    pub report: CostReport,
}

/// Communication-optimal parallel SYMV on the simulated machine: gathers
/// the `q + 1` row blocks of `x` each rank needs, runs the local triangle
/// kernels, reduce-scatters the partial `y` — structurally identical to
/// Algorithm 5 one dimension down.
pub fn parallel_symv(matrix: &SymMatrix, part: &TrianglePartition, x: &[f64]) -> SymvRun {
    let n = part.dim();
    assert_eq!(matrix.dim(), n);
    assert_eq!(x.len(), n);
    let p_count = part.num_procs();
    let b = part.block_size();

    let (rank_results, report): (Vec<Vec<Vec<f64>>>, CostReport) =
        Universe::new(p_count).run(|comm| {
            let p = comm.rank();
            let rp = part.r_set(p);
            // --- Gather full x row blocks via sparse pairwise all-to-all.
            let mut x_full: Vec<Vec<f64>> = vec![vec![0.0; b]; rp.len()];
            for (t, &i) in rp.iter().enumerate() {
                let local = part.shard_range(i, p);
                let global = part.block_range(i);
                x_full[t][local.clone()]
                    .copy_from_slice(&x[global.start + local.start..global.start + local.end]);
            }
            let shared = |a: usize, bb: usize| -> Vec<usize> {
                part.r_set(a)
                    .iter()
                    .copied()
                    .filter(|i| part.r_set(bb).binary_search(i).is_ok())
                    .collect()
            };
            let mut sendbufs: Vec<Vec<f64>> = vec![Vec::new(); p_count];
            for (peer, buf) in sendbufs.iter_mut().enumerate() {
                if peer == p {
                    continue;
                }
                for i in shared(p, peer) {
                    let local = part.shard_range(i, p);
                    let global = part.block_range(i);
                    buf.extend_from_slice(&x[global.start + local.start..global.start + local.end]);
                }
            }
            let recvd = comm.all_to_all_v(sendbufs).expect("x gather");
            for (peer, buf) in recvd.iter().enumerate() {
                if peer == p {
                    continue;
                }
                let mut offset = 0;
                for i in shared(p, peer) {
                    let t = rp.binary_search(&i).unwrap();
                    let range = part.shard_range(i, peer);
                    x_full[t][range.clone()].copy_from_slice(&buf[offset..offset + range.len()]);
                    offset += range.len();
                }
            }

            // --- Local compute: off-diagonal blocks of my line + diagonal.
            let mut y_acc: Vec<Vec<f64>> = vec![vec![0.0; b]; rp.len()];
            for ti in 0..rp.len() {
                for tj in 0..ti {
                    let (gi, gj) = (rp[ti] * b, rp[tj] * b);
                    // Only compute blocks this line owns.
                    if part.pair_owner(rp[ti], rp[tj]) != p {
                        continue;
                    }
                    for li in 0..b {
                        let xi = x_full[ti][li];
                        let mut acc = 0.0;
                        for lj in 0..b {
                            let a = matrix.get_sorted(gi + li, gj + lj);
                            acc += a * x_full[tj][lj];
                            y_acc[tj][lj] += a * xi;
                        }
                        y_acc[ti][li] += acc;
                    }
                }
            }
            // Diagonal block (owned by this processor, if any).
            if let Some(di) = part.diagonal_of(p) {
                let td = rp.binary_search(&di).unwrap();
                let gd = di * b;
                for li in 0..b {
                    for lj in 0..=li {
                        let a = matrix.get_sorted(gd + li, gd + lj);
                        if li != lj {
                            y_acc[td][li] += a * x_full[td][lj];
                            y_acc[td][lj] += a * x_full[td][li];
                        } else {
                            y_acc[td][li] += a * x_full[td][li];
                        }
                    }
                }
            }

            // --- Reduce y: ship each peer its shard of my partials.
            let mut sendbufs: Vec<Vec<f64>> = vec![Vec::new(); p_count];
            for (peer, buf) in sendbufs.iter_mut().enumerate() {
                if peer == p {
                    continue;
                }
                for i in shared(p, peer) {
                    let t = rp.binary_search(&i).unwrap();
                    buf.extend_from_slice(&y_acc[t][part.shard_range(i, peer)]);
                }
            }
            let recvd = comm.all_to_all_v(sendbufs).expect("y reduce");
            let mut y_out: Vec<Vec<f64>> = rp
                .iter()
                .enumerate()
                .map(|(t, &i)| y_acc[t][part.shard_range(i, p)].to_vec())
                .collect();
            for (peer, buf) in recvd.iter().enumerate() {
                if peer == p {
                    continue;
                }
                let mut offset = 0;
                for i in shared(p, peer) {
                    let t = rp.binary_search(&i).unwrap();
                    let len = part.shard_range(i, p).len();
                    for (acc, &v) in y_out[t].iter_mut().zip(&buf[offset..offset + len]) {
                        *acc += v;
                    }
                    offset += len;
                }
            }
            y_out
        });

    let mut y = vec![0.0; n];
    for (p, shards) in rank_results.into_iter().enumerate() {
        for (t, &i) in part.r_set(p).iter().enumerate() {
            let global = part.block_range(i);
            let local = part.shard_range(i, p);
            y[global.start + local.start..global.start + local.end].copy_from_slice(&shards[t]);
        }
    }
    SymvRun { y, report }
}

/// The 2-D symmetric lower bound (the SYMV shadow of Theorem 5.2):
/// `2·√(n(n−1)/P) − 2n/P`.
pub fn symv_lower_bound(n: usize, p: usize) -> f64 {
    let nn = n as f64;
    2.0 * (nn * (nn - 1.0) / p as f64).sqrt() - 2.0 * nn / p as f64
}

/// Per-vector words each processor moves: `q·b = q·n/(q² + q + 1)`.
pub fn symv_words_per_vector(n: usize, q: usize) -> usize {
    let m = q * q + q + 1;
    q * n / m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor_core::symmat::{random_symmetric_matrix, symv_sym};

    #[test]
    fn partitions_verify_for_small_planes() {
        for q in [2u64, 3, 4] {
            let m = (q * q + q + 1) as usize;
            let part = TrianglePartition::new(q, m * (q as usize + 1)).unwrap();
            part.verify().unwrap();
            assert_eq!(part.num_procs(), m);
            assert_eq!(part.lambda1(), q as usize + 1);
        }
    }

    #[test]
    fn parallel_symv_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(201);
        for q in [2u64, 3] {
            let m = (q * q + q + 1) as usize;
            let n = m * (q as usize + 1); // b = q+1 = λ₁, exact shards
            let part = TrianglePartition::new(q, n).unwrap();
            let matrix = random_symmetric_matrix(n, &mut rng);
            let x: Vec<f64> = (0..n).map(|i| ((i * 3 + 1) as f64 * 0.02).sin()).collect();
            let run = parallel_symv(&matrix, &part, &x);
            let (y_ref, _) = symv_sym(&matrix, &x);
            for (i, (got, want)) in run.y.iter().zip(&y_ref).enumerate() {
                assert!(
                    (got - want).abs() < 1e-10 * (1.0 + want.abs()),
                    "q={q} y[{i}]: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn words_match_closed_form_and_approach_lower_bound() {
        let q = 3usize;
        let m = q * q + q + 1; // 13
        let n = m * (q + 1) * 4;
        let part = TrianglePartition::new(q as u64, n).unwrap();
        let mut rng = StdRng::seed_from_u64(202);
        let matrix = random_symmetric_matrix(n, &mut rng);
        let x = vec![1.0; n];
        let run = parallel_symv(&matrix, &part, &x);
        let per_vec = symv_words_per_vector(n, q) as u64;
        for cost in &run.report.per_rank {
            assert_eq!(cost.words_sent, 2 * per_vec);
            assert_eq!(cost.words_recv, 2 * per_vec);
        }
        // Above but near the 2-D lower bound.
        let lb = symv_lower_bound(n, part.num_procs());
        let measured = run.report.bandwidth_cost() as f64;
        assert!(measured >= lb * 0.999);
        assert!(measured < lb * 1.5, "measured {measured} vs bound {lb}");
    }

    #[test]
    fn every_processor_owns_its_line_blocks_exactly() {
        // Each pair block owned exactly once overall, diagonals once.
        let part = TrianglePartition::new(2, 7 * 3).unwrap();
        let m = part.num_row_blocks();
        let mut count = 0;
        for i in 0..m {
            for j in 0..i {
                let owner = part.pair_owner(i, j);
                assert!(owner < part.num_procs());
                count += 1;
            }
        }
        assert_eq!(count, m * (m - 1) / 2);
    }
}

/// Result of a distributed SYRK run: the symmetric product stays
/// distributed (each rank holds its triangle blocks); the driver assembles
/// it for convenience.
#[derive(Clone, Debug)]
pub struct SyrkRun {
    /// The assembled symmetric product `C = A·Aᵀ`.
    pub c: SymMatrix,
    /// Exact per-rank communication costs.
    pub report: CostReport,
}

/// Communication-optimal parallel SYRK `C = A·Aᵀ` via the triangle
/// partition — the kernel of Beaumont et al. (2022) / Al Daas et al.
/// (2023). `a` is `n × k` row-major (`a[i*k + l]`). Each rank gathers the
/// `q + 1` row panels of `A` its line needs (`≈ q·n·k/m ≈ nk/√P` words)
/// and computes its owned blocks of `C`; **no `C` entry is ever
/// communicated** (owner-compute, like the tensor case).
pub fn parallel_syrk(a: &[f64], k: usize, part: &TrianglePartition) -> SyrkRun {
    let n = part.dim();
    assert_eq!(a.len(), n * k, "A must be n × k row-major");
    let p_count = part.num_procs();
    let b = part.block_size();

    type RankOut = (Vec<((usize, usize), Vec<f64>)>, Option<Vec<f64>>);
    let (rank_results, report): (Vec<RankOut>, CostReport) = Universe::new(p_count).run(|comm| {
        let p = comm.rank();
        let rp = part.r_set(p);
        // --- Gather full A row panels (b × k each) for my line's points.
        // Sharding: within row block i, the owner at position t of Q_i holds
        // the rows of shard_range(i, ·), each of k columns.
        let mut a_full: Vec<Vec<f64>> = vec![vec![0.0; b * k]; rp.len()];
        for (t, &i) in rp.iter().enumerate() {
            let local = part.shard_range(i, p);
            let g0 = part.block_range(i).start;
            for row in local {
                a_full[t][row * k..(row + 1) * k]
                    .copy_from_slice(&a[(g0 + row) * k..(g0 + row + 1) * k]);
            }
        }
        let shared = |x: usize, y: usize| -> Vec<usize> {
            part.r_set(x)
                .iter()
                .copied()
                .filter(|i| part.r_set(y).binary_search(i).is_ok())
                .collect()
        };
        let mut sendbufs: Vec<Vec<f64>> = vec![Vec::new(); p_count];
        for (peer, buf) in sendbufs.iter_mut().enumerate() {
            if peer == p {
                continue;
            }
            for i in shared(p, peer) {
                let local = part.shard_range(i, p);
                let g0 = part.block_range(i).start;
                for row in local {
                    buf.extend_from_slice(&a[(g0 + row) * k..(g0 + row + 1) * k]);
                }
            }
        }
        let recvd = comm.all_to_all_v(sendbufs).expect("A gather");
        for (peer, buf) in recvd.iter().enumerate() {
            if peer == p {
                continue;
            }
            let mut offset = 0;
            for i in shared(p, peer) {
                let t = rp.binary_search(&i).unwrap();
                for row in part.shard_range(i, peer) {
                    a_full[t][row * k..(row + 1) * k].copy_from_slice(&buf[offset..offset + k]);
                    offset += k;
                }
            }
        }

        // --- Compute owned C blocks; C never moves.
        let mut blocks: Vec<((usize, usize), Vec<f64>)> = Vec::new();
        for ti in 0..rp.len() {
            for tj in 0..ti {
                if part.pair_owner(rp[ti], rp[tj]) != p {
                    continue;
                }
                // Dense b×b block C[I][J] = A_I · A_Jᵀ.
                let mut c = vec![0.0; b * b];
                for li in 0..b {
                    for lj in 0..b {
                        let mut acc = 0.0;
                        for l in 0..k {
                            acc += a_full[ti][li * k + l] * a_full[tj][lj * k + l];
                        }
                        c[li * b + lj] = acc;
                    }
                }
                blocks.push(((rp[ti], rp[tj]), c));
            }
        }
        // Diagonal block: lower triangle of A_I·A_Iᵀ (if owned).
        let diag = part.diagonal_of(p).map(|di| {
            let td = rp.binary_search(&di).unwrap();
            let mut diag = vec![0.0; b * (b + 1) / 2];
            let mut pos = 0;
            for li in 0..b {
                for lj in 0..=li {
                    let mut acc = 0.0;
                    for l in 0..k {
                        acc += a_full[td][li * k + l] * a_full[td][lj * k + l];
                    }
                    diag[pos] = acc;
                    pos += 1;
                }
            }
            diag
        });
        (blocks, diag)
    });

    // Assemble the distributed C.
    let mut c = SymMatrix::zeros(n);
    for (p, (blocks, diag)) in rank_results.into_iter().enumerate() {
        for ((bi, bj), data) in blocks {
            let (g0, h0) = (bi * b, bj * b);
            for li in 0..b {
                for lj in 0..b {
                    c.set(g0 + li, h0 + lj, data[li * b + lj]);
                }
            }
        }
        if let (Some(di), Some(diag)) = (part.diagonal_of(p), diag) {
            let g0 = di * b;
            let mut pos = 0;
            for li in 0..b {
                for lj in 0..=li {
                    c.set(g0 + li, g0 + lj, diag[pos]);
                    pos += 1;
                }
            }
        }
    }
    SyrkRun { c, report }
}

/// Words each processor receives (= sends) in the SYRK gather:
/// `k·q·n/(q²+q+1) ≈ n·k/√P`.
pub fn syrk_words(n: usize, k: usize, q: usize) -> usize {
    k * symv_words_per_vector(n, q)
}

#[cfg(test)]
mod syrk_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dense_syrk(a: &[f64], n: usize, k: usize) -> SymMatrix {
        let mut c = SymMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[i * k + l] * a[j * k + l];
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn parallel_syrk_matches_dense_reference() {
        let mut rng = StdRng::seed_from_u64(210);
        for (q, k) in [(2u64, 3usize), (3, 5)] {
            let m = (q * q + q + 1) as usize;
            let n = m * (q as usize + 1);
            let part = TrianglePartition::new(q, n).unwrap();
            let a: Vec<f64> = (0..n * k).map(|_| rng.gen::<f64>() - 0.5).collect();
            let run = parallel_syrk(&a, k, &part);
            let reference = dense_syrk(&a, n, k);
            for i in 0..n {
                for j in 0..=i {
                    assert!(
                        (run.c.get(i, j) - reference.get(i, j)).abs()
                            < 1e-10 * (1.0 + reference.get(i, j).abs()),
                        "q={q} C[{i},{j}]"
                    );
                }
            }
        }
    }

    #[test]
    fn syrk_moves_no_c_words_and_matches_gather_formula() {
        let q = 3usize;
        let k = 4;
        let m = q * q + q + 1;
        let n = m * (q + 1) * 2;
        let part = TrianglePartition::new(q as u64, n).unwrap();
        let a = vec![1.0; n * k];
        let run = parallel_syrk(&a, k, &part);
        let expect = syrk_words(n, k, q) as u64;
        for cost in &run.report.per_rank {
            // Only the A gather moves data — exactly k × the SYMV x-phase.
            assert_eq!(cost.words_sent, expect);
            assert_eq!(cost.words_recv, expect);
        }
        // nk/√P scaling: measured / (n·k/√P) is a modest constant.
        let scale = (n * k) as f64 / (part.num_procs() as f64).sqrt();
        let ratio = run.report.bandwidth_cost() as f64 / scale;
        assert!(ratio > 0.5 && ratio < 1.5, "ratio {ratio}");
    }
}

#[cfg(test)]
mod sts_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor_core::symmat::{random_symmetric_matrix, symv_sym};
    use symtensor_steiner::plane::bose_triple_system;

    #[test]
    fn triangle_partition_from_bose_triple_systems() {
        // Steiner triple systems give P = n(n−1)/6 > m processors; some
        // ranks own no diagonal block but the distribution stays valid.
        for m in [9usize, 15] {
            let sts = bose_triple_system(m);
            let lambda1 = (m - 1) / 2;
            let n = m * lambda1;
            let part = TrianglePartition::from_system(sts, n).unwrap();
            part.verify().unwrap();
            assert_eq!(part.num_procs(), m * (m - 1) / 6);
            assert!(part.num_procs() > part.num_row_blocks(), "Fisher: P > m for STS");
            let with_diag =
                (0..part.num_procs()).filter(|&p| part.diagonal_of(p).is_some()).count();
            assert_eq!(with_diag, m);
        }
    }

    #[test]
    fn parallel_symv_on_a_triple_system() {
        let m = 9;
        let sts = bose_triple_system(m);
        let n = m * 4; // λ₁ = 4 divides b = 4
        let part = TrianglePartition::from_system(sts, n).unwrap();
        let mut rng = StdRng::seed_from_u64(220);
        let matrix = random_symmetric_matrix(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).cos()).collect();
        let run = parallel_symv(&matrix, &part, &x);
        let (y_ref, _) = symv_sym(&matrix, &x);
        for (i, (got, want)) in run.y.iter().zip(&y_ref).enumerate() {
            assert!((got - want).abs() < 1e-10 * (1.0 + want.abs()), "y[{i}]");
        }
    }

    #[test]
    fn parallel_syrk_on_a_triple_system() {
        let m = 9;
        let sts = bose_triple_system(m);
        let n = m * 4;
        let k = 3;
        let part = TrianglePartition::from_system(sts, n).unwrap();
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(221);
        let a: Vec<f64> = (0..n * k).map(|_| rng.gen::<f64>() - 0.5).collect();
        let run = parallel_syrk(&a, k, &part);
        for i in 0..n {
            for j in 0..=i {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[i * k + l] * a[j * k + l];
                }
                assert!((run.c.get(i, j) - acc).abs() < 1e-10 * (1.0 + acc.abs()));
            }
        }
    }
}
