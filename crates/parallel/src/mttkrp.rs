//! Parallel symmetric MTTKRP and the distributed CP gradient — the
//! generalization the paper's Section 8 targets.
//!
//! Mode-1 symmetric MTTKRP `Y_{iℓ} = Σ_{jk} a_{ijk} X_{jℓ} X_{kℓ}` is one
//! STTSV per factor column, so the tetrahedral distribution applies
//! unchanged: each rank owns, for every row block `i ∈ R_p`, its shard of
//! **all `r` columns**. The `r` columns run as one batch of
//! [`RankContext::sttsv_multi`], whose messages carry every column's piece
//! back-to-back, so the round structure (and hence the latency cost) is
//! identical to a single STTSV while the bandwidth scales by exactly `r` —
//! the best possible, since each column is an independent STTSV subject to
//! the Theorem 5.2 bound.
//!
//! On top of MTTKRP, [`parallel_cp_gradient`] evaluates the paper's
//! Algorithm 2 (`Y = X·[(XᵀX)∗(XᵀX)] − MTTKRP(𝓐, X)`) with the Gram matrix
//! assembled by an `r²`-word all-reduce of per-rank partial Grams.

use crate::algorithm5::{check_dims, InputError, Machine, Mode, RankContext};
use crate::partition::TetraPartition;
use symtensor_core::ops::Matrix;
use symtensor_core::SymTensor3;
use symtensor_mpsim::{Comm, CostReport, Universe};

impl RankContext<'_> {
    /// One distributed MTTKRP over `r` columns. `my_wide_shards[t]` holds
    /// this rank's shard of row block `R_p[t]` for every column,
    /// column-major: `[col0 shard | col1 shard | …]`. Returns wide `y`
    /// shards (same layout) and the ternary-multiplication count.
    pub fn mttkrp(
        &self,
        comm: &Comm,
        my_wide_shards: &[Vec<f64>],
        r: usize,
    ) -> (Vec<Vec<f64>>, u64) {
        let part = self.part;
        let p = comm.rank();
        let rp = part.r_set(p);
        assert_eq!(my_wide_shards.len(), rp.len(), "one wide shard per owned row block");
        for (wide, &i) in my_wide_shards.iter().zip(rp) {
            let s = part.shard_range(i, p).len();
            assert_eq!(wide.len(), s * r, "wide shard must hold r columns");
        }
        let columns: Vec<Vec<Vec<f64>>> =
            (0..r).map(|col| column(my_wide_shards, col, r)).collect();
        let (ys, ternary) = self.sttsv_multi(comm, &columns);
        (interleave(&ys, rp.len()), ternary)
    }
}

/// Column `col` of `r`-column wide shards.
fn column(wide: &[Vec<f64>], col: usize, r: usize) -> Vec<Vec<f64>> {
    wide.iter()
        .map(|w| {
            let s = w.len() / r;
            w[col * s..(col + 1) * s].to_vec()
        })
        .collect()
}

/// Wide shards (column-major) from per-column shards `columns[col][t]`.
fn interleave(columns: &[Vec<Vec<f64>>], t_count: usize) -> Vec<Vec<f64>> {
    (0..t_count).map(|t| columns.iter().flat_map(|c| c[t].iter().copied()).collect()).collect()
}

/// Result of a driver-level parallel MTTKRP / CP-gradient run.
#[derive(Clone, Debug)]
pub struct MttkrpRun {
    /// The `n × r` result matrix.
    pub y: Matrix,
    /// Exact per-rank communication costs.
    pub report: CostReport,
    /// Per-rank ternary-multiplication counts.
    pub ternary_per_rank: Vec<u64>,
}

/// Runs `per_rank(comm, ctx, columns)` on every rank, `columns[col][t]`
/// being the rank's shard of row block `R_p[t]` of column `col` of `x_mat`,
/// and assembles the per-column output shards each rank returns (same
/// keying) into an `n × r` matrix. Returns an [`InputError`] when the
/// tensor or a column of `x_mat` is not `part.dim()`-dimensional, or a
/// column holds a non-finite entry (`index` is the column).
fn run_columns(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x_mat: &Matrix,
    mode: Mode,
    per_rank: impl Fn(&Comm, &RankContext<'_>, Vec<Vec<Vec<f64>>>) -> (Vec<Vec<Vec<f64>>>, u64) + Sync,
) -> Result<MttkrpRun, InputError> {
    let n = part.dim();
    let r = x_mat.cols();
    let x_cols: Vec<Vec<f64>> = (0..r).map(|col| x_mat.col(col)).collect();
    check_dims(n, tensor, x_cols.iter().map(Vec::as_slice))?;
    let machine = Machine::new(tensor, part, mode);
    let (rank_results, report) = Universe::new(part.num_procs()).run(|comm| {
        let columns = x_cols.iter().map(|x| part.shards_of(comm.rank(), x)).collect();
        machine.with_rank(comm, |ctx| per_rank(comm, ctx, columns))
    });
    let mut y = Matrix::zeros(n, r);
    let mut y_col = vec![0.0; n];
    for col in 0..r {
        for (p, (columns, _)) in rank_results.iter().enumerate() {
            part.place_shards(p, &columns[col], &mut y_col);
        }
        y.set_col(col, &y_col);
    }
    let ternary_per_rank = rank_results.iter().map(|&(_, ternary)| ternary).collect();
    Ok(MttkrpRun { y, report, ternary_per_rank })
}

/// Runs the distributed symmetric MTTKRP on the simulated machine.
///
/// # Errors
/// [`InputError`] when the tensor or `x_mat`'s row count is not
/// `part.dim()`, or `x_mat` holds a NaN or an infinity.
pub fn parallel_mttkrp(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x_mat: &Matrix,
    mode: Mode,
) -> Result<MttkrpRun, InputError> {
    run_columns(tensor, part, x_mat, mode, |comm, ctx, columns| ctx.sttsv_multi(comm, &columns))
}

/// Distributed Algorithm 2: the symmetric CP gradient
/// `Y = X·[(XᵀX)∗(XᵀX)] − MTTKRP(𝓐, X)`, with the `r × r` Gram matrix
/// assembled by an all-reduce of per-rank partial Grams (`r²` words, a
/// lower-order term next to the MTTKRP traffic).
///
/// # Errors
/// As [`parallel_mttkrp`].
pub fn parallel_cp_gradient(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x_mat: &Matrix,
    mode: Mode,
) -> Result<MttkrpRun, InputError> {
    let r = x_mat.cols();
    run_columns(tensor, part, x_mat, mode, |comm, ctx, columns| {
        let t_count = part.r_set(comm.rank()).len();
        // Distributed Gram: each rank contributes its owned rows.
        let mut partial = vec![0.0; r * r];
        for (a, col_a) in columns.iter().enumerate() {
            for (bb, col_b) in columns.iter().enumerate() {
                for (xa, xb) in col_a.iter().zip(col_b) {
                    let dot = xa.iter().zip(xb).fold(0.0, |acc, (u, v)| acc + u * v);
                    partial[a * r + bb] += dot;
                }
            }
        }
        let gram = comm.all_reduce(partial).expect("gram all-reduce");
        // G = (XᵀX) ∗ (XᵀX).
        let g: Vec<f64> = gram.iter().map(|&v| v * v).collect();
        // MTTKRP part.
        let (mttkrp, ternary) = ctx.sttsv_multi(comm, &columns);
        // Y = X·G − MTTKRP, computed on the owned shards only.
        let out = (0..r)
            .map(|col| {
                (0..t_count)
                    .map(|t| {
                        let m = &mttkrp[col][t];
                        (0..m.len())
                            .map(|off| {
                                let mut acc = 0.0;
                                for inner in 0..r {
                                    acc += columns[inner][t][off] * g[inner * r + col];
                                }
                                acc - m[off]
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        (out, ternary)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use symtensor_core::cp::cp_gradient;
    use symtensor_core::generate::random_symmetric;
    use symtensor_core::mttkrp::mttkrp_sym;
    use symtensor_steiner::spherical;

    fn random_factor(n: usize, r: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::zeros(n, r);
        for row in 0..n {
            for col in 0..r {
                m.set(row, col, rng.gen::<f64>() - 0.5);
            }
        }
        m
    }

    fn assert_matrix_close(a: &Matrix, b: &Matrix, tol: f64) {
        for row in 0..a.rows() {
            for col in 0..a.cols() {
                let (x, y) = (a.get(row, col), b.get(row, col));
                assert!((x - y).abs() < tol * (1.0 + x.abs()), "[{row},{col}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn parallel_mttkrp_matches_sequential() {
        let n = 30;
        let r = 3;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(51);
        let tensor = random_symmetric(n, &mut rng);
        let x = random_factor(n, r, 52);
        let (y_ref, _) = mttkrp_sym(&tensor, &x);
        for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
            let run = parallel_mttkrp(&tensor, &part, &x, mode).unwrap();
            assert_matrix_close(&run.y, &y_ref, 1e-9);
        }
    }

    #[test]
    fn mttkrp_bandwidth_is_r_times_sttsv() {
        let n = 60;
        let q = 2usize;
        let r = 4;
        let part = TetraPartition::new(spherical(q as u64), n).unwrap();
        let mut rng = StdRng::seed_from_u64(53);
        let tensor = random_symmetric(n, &mut rng);
        let x = random_factor(n, r, 54);
        let run = parallel_mttkrp(&tensor, &part, &x, Mode::Scheduled).unwrap();
        let per_vec = bounds::scheduled_words_per_vector(n, q) as u64;
        for cost in &run.report.per_rank {
            assert_eq!(cost.words_sent, 2 * per_vec * r as u64);
            // Same round structure as a single STTSV.
            assert_eq!(cost.rounds, 2 * crate::schedule::spherical_round_count(q) as u64);
        }
        // Work: r times the single-vector total.
        let total: u64 = run.ternary_per_rank.iter().sum();
        let n64 = n as u64;
        assert_eq!(total, r as u64 * n64 * n64 * (n64 + 1) / 2);
    }

    #[test]
    fn parallel_cp_gradient_matches_sequential() {
        let n = 30;
        let r = 2;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(55);
        let tensor = random_symmetric(n, &mut rng);
        let x = random_factor(n, r, 56);
        let y_ref = cp_gradient(&tensor, &x);
        for mode in [Mode::Scheduled, Mode::AllToAllPadded] {
            let run = parallel_cp_gradient(&tensor, &part, &x, mode).unwrap();
            assert_matrix_close(&run.y, &y_ref, 1e-8);
        }
    }

    #[test]
    fn single_column_mttkrp_equals_sttsv_run() {
        // Every column of an r > 1 MTTKRP is bit-identical to the STTSV of
        // that column, and the batch moves exactly r× the words in the same
        // messages and rounds, in every mode.
        let n = 30;
        let r = 3;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(57);
        let tensor = random_symmetric(n, &mut rng);
        let x = random_factor(n, r, 58);
        for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
            let mrun = parallel_mttkrp(&tensor, &part, &x, mode).unwrap();
            for col in 0..r {
                let srun = crate::parallel_sttsv(&tensor, &part, &x.col(col), mode);
                for i in 0..n {
                    assert_eq!(mrun.y.get(i, col).to_bits(), srun.y[i].to_bits(), "{mode:?}");
                }
                let per_rank = mrun.report.per_rank.iter().zip(&srun.report.per_rank);
                for (p, (m, s)) in per_rank.enumerate() {
                    assert_eq!(m.words_sent, r as u64 * s.words_sent, "{mode:?} rank {p}");
                    assert_eq!(m.words_recv, r as u64 * s.words_recv, "{mode:?} rank {p}");
                    assert_eq!(m.msgs_sent, s.msgs_sent, "{mode:?} rank {p}");
                    assert_eq!(m.msgs_recv, s.msgs_recv, "{mode:?} rank {p}");
                    assert_eq!(m.rounds, s.rounds, "{mode:?} rank {p}");
                }
                let ternary: Vec<u64> =
                    srun.ternary_per_rank.iter().map(|t| r as u64 * t).collect();
                assert_eq!(mrun.ternary_per_rank, ternary);
            }
        }
    }

    #[test]
    fn bad_inputs_return_typed_errors() {
        let n = 30;
        let r = 2;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let tensor = SymTensor3::zeros(n);
        let drivers: [fn(&SymTensor3, &TetraPartition, &Matrix, Mode) -> _; 2] =
            [parallel_mttkrp, parallel_cp_gradient];
        for driver in drivers {
            let small = SymTensor3::zeros(20);
            let err = driver(&small, &part, &random_factor(n, r, 59), Mode::Scheduled).unwrap_err();
            assert_eq!(err, InputError::TensorDim { expected: n, got: 20 });
            let short = random_factor(n - 1, r, 60);
            let err = driver(&tensor, &part, &short, Mode::Scheduled).unwrap_err();
            assert_eq!(err, InputError::VectorDim { index: 0, expected: n, got: n - 1 });
            let mut x = random_factor(n, r, 61);
            x.set(7, 1, f64::NAN);
            let err = driver(&tensor, &part, &x, Mode::Scheduled).unwrap_err();
            assert_eq!(err, InputError::NonFinite { index: 1, entry: 7 });
        }
    }
}
