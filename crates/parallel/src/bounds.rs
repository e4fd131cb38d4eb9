//! Closed-form costs: the communication lower bound (Theorem 5.2), the
//! algorithm's cost formulas (Sections 7.1–7.2) and the optimization
//! problem of Lemma 5.1 they derive from.

/// Lemma 5.1: minimize `x₁ + 2x₂` subject to
/// `n(n−1)(n−2)/(6P) ≤ x₁` and `n(n−1)(n−2)/P ≤ x₂³`. The optimum is at
/// both constraints tight; returns `(x₁*, x₂*)`.
pub fn lemma51_optimum(n: usize, p: usize) -> (f64, f64) {
    let s = strict_tetra(n) as f64 / p as f64;
    (s, (6.0 * s).cbrt())
}

/// Strict lower-tetrahedron size `n(n−1)(n−2)/6`.
pub fn strict_tetra(n: usize) -> u64 {
    let n = n as u64;
    if n < 3 {
        0
    } else {
        n * (n - 1) * (n - 2) / 6
    }
}

/// Theorem 5.2: any load-balanced parallel atomic STTSV algorithm has a
/// processor communicating at least
/// `2·(n(n−1)(n−2)/P)^{1/3} − 2n/P` words, clamped at 0 — for `n < 3` the
/// strict tetrahedron is empty and the raw formula goes negative
/// (`n(n−1)(n−2) ≤ 0`), but a word count can never be: zero communication
/// is always "allowed" by the bound in the degenerate cases.
pub fn lower_bound_words(n: usize, p: usize) -> f64 {
    let nn = n as f64;
    let pp = p as f64;
    (2.0 * (nn * (nn - 1.0) * (nn - 2.0) / pp).cbrt() - 2.0 * nn / pp).max(0.0)
}

/// The lower bound's leading term `2n/P^{1/3}`.
pub fn lower_bound_leading(n: usize, p: usize) -> f64 {
    2.0 * n as f64 / (p as f64).cbrt()
}

/// Number of processors for the spherical family: `P = q(q²+1)`.
pub fn spherical_procs(q: usize) -> usize {
    q * (q * q + 1)
}

/// §7.2.2: per-vector words each processor sends (= receives) under the
/// point-to-point schedule: `n(q+1)/(q²+1) − n/P`.
///
/// Exact (integer) only when the partition's divisibility precondition
/// `q(q+1) | b` holds for `b = n/(q²+1)`; the integer divisions otherwise
/// truncate silently and the returned count is wrong, so the precondition
/// is `debug_assert!`ed. For arbitrary `n` (model sweeps over non-divisible
/// sizes) use [`scheduled_words_per_vector_f64`].
pub fn scheduled_words_per_vector(n: usize, q: usize) -> usize {
    debug_assert!(
        n.is_multiple_of(q * q + 1) && (n / (q * q + 1)).is_multiple_of(q * (q + 1)),
        "scheduled_words_per_vector(n={n}, q={q}): requires q(q+1) | b with b = n/(q²+1); \
         use scheduled_words_per_vector_f64 for non-divisible n"
    );
    let p = spherical_procs(q);
    n * (q + 1) / (q * q + 1) - n / p
}

/// [`scheduled_words_per_vector`] as an exact real-valued model,
/// `n(q+1)/(q²+1) − n/P`, valid for **any** `n` (no divisibility
/// precondition). Agrees exactly with the integer version whenever that
/// one's precondition holds.
pub fn scheduled_words_per_vector_f64(n: usize, q: usize) -> f64 {
    let nn = n as f64;
    let qq = q as f64;
    nn * (qq + 1.0) / (qq * qq + 1.0) - nn / spherical_procs(q) as f64
}

/// §7.2.2: total (both vectors) bandwidth of the scheduled algorithm:
/// `2(n(q+1)/(q²+1) − n/P)`. Same divisibility precondition as
/// [`scheduled_words_per_vector`].
pub fn scheduled_words_total(n: usize, q: usize) -> usize {
    2 * scheduled_words_per_vector(n, q)
}

/// Real-valued twin of [`scheduled_words_total`], valid for any `n`.
pub fn scheduled_words_total_f64(n: usize, q: usize) -> f64 {
    2.0 * scheduled_words_per_vector_f64(n, q)
}

/// §7.2.2 (All-to-All collective variant): per-vector cost
/// `2n/(q+1)·(1 − 1/P)`; total over both vectors `4n/(q+1)·(1 − 1/P)`.
///
/// Exact (integer) only when `q(q+1)(q²+1) | 2n` — equivalently
/// `q(q+1) | 2b` with `b = n/(q²+1)`, the padded-shard divisibility — and
/// `debug_assert!`ed as such; the chained integer divisions otherwise
/// truncate (down to returning 0 for small non-divisible `n`). For
/// arbitrary `n` use [`alltoall_words_total_f64`].
pub fn alltoall_words_total(n: usize, q: usize) -> usize {
    debug_assert!(
        n.is_multiple_of(q * q + 1) && (2 * n / (q * q + 1)).is_multiple_of(q * (q + 1)),
        "alltoall_words_total(n={n}, q={q}): requires q(q+1)(q²+1) | 2n; \
         use alltoall_words_total_f64 for non-divisible n"
    );
    let p = spherical_procs(q);
    let b = n / (q * q + 1);
    let shard2 = 2 * b / (q * (q + 1));
    // Two vectors, P−1 uniform messages each.
    2 * shard2 * (p - 1)
}

/// Real-valued twin of [`alltoall_words_total`]:
/// `4n/(q+1)·(1 − 1/P)`, valid for any `n`. Algebraically equal to the
/// integer version whenever its precondition holds
/// (`2·2b/(q(q+1))·(P−1) = 4n/(q+1)·(1−1/P)` with `b = n/(q²+1)`,
/// `P = q(q²+1)`).
pub fn alltoall_words_total_f64(n: usize, q: usize) -> f64 {
    let nn = n as f64;
    let qq = q as f64;
    4.0 * nn / (qq + 1.0) * (1.0 - 1.0 / spherical_procs(q) as f64)
}

/// §7.1: leading-order per-processor computational cost `n³/(2P)` ternary
/// multiplications.
pub fn comp_cost_leading(n: usize, p: usize) -> f64 {
    let nn = n as f64;
    nn * nn * nn / (2.0 * p as f64)
}

/// §7.1: the exact upper bound on per-processor ternary multiplications:
/// `(q+1)q(q−1)/6·3b³ + q·(3b²(b−1)/2 + 2b²) + 3b(b−1)(b−2)/6 + 2b(b−1) + b`
/// (off-diagonal + non-central + central terms; the paper's displayed bound
/// keeps only the leading term of each class, we include the full
/// per-block counts).
///
/// The non-central term is `3b²(b−1)/2 + 2b²` per block — a non-central
/// block holds `b·b(b−1)/2` entries with three distinct global indices
/// (3 multiplications each) and `b²` entries with exactly two equal
/// (2 each) — matching [`crate::tetra::ternary_mults_in_block`], which is pinned against
/// a brute-force block enumeration in `tetra`'s tests. This is attained
/// exactly by the ranks owning a central diagonal block (the heaviest
/// assignment: `(q+1)q(q−1)/6` off-diagonal + `q` non-central + 1 central).
pub fn comp_cost_upper(q: usize, b: usize) -> u64 {
    use crate::tetra::{ternary_mults_in_block, BlockKind};
    let off = (q + 1) * q * (q.max(1) - 1) / 6;
    off as u64 * ternary_mults_in_block(BlockKind::OffDiagonal, b)
        + q as u64 * ternary_mults_in_block(BlockKind::NonCentralIIK, b)
        + ternary_mults_in_block(BlockKind::CentralDiagonal, b)
}

/// §6.1.3: per-processor tensor storage upper bound (in words):
/// `(q+1)q(q−1)/6·b³ + q·b²(b+1)/2 + b(b+1)(b+2)/6 ≈ n³/(6P)`.
pub fn tensor_words_upper(q: usize, b: usize) -> u64 {
    use crate::tetra::{entries_in_block, BlockKind};
    let off = (q + 1) * q * (q.max(1) - 1) / 6;
    (off * entries_in_block(BlockKind::OffDiagonal, b)
        + q * entries_in_block(BlockKind::NonCentralIIK, b)
        + entries_in_block(BlockKind::CentralDiagonal, b)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma51_constraints_hold_at_optimum() {
        for &(n, p) in &[(120usize, 30usize), (1000, 350), (60, 10)] {
            let (x1, x2) = lemma51_optimum(n, p);
            let s = strict_tetra(n) as f64 / p as f64;
            assert!(x1 >= s - 1e-9);
            assert!(x2.powi(3) >= 6.0 * s - 1e-6);
            // Objective value = lower bound + owned data.
            let objective = x1 + 2.0 * x2;
            let owned = s + 2.0 * n as f64 / p as f64;
            assert!((objective - owned - lower_bound_words(n, p)).abs() < 1e-6);
        }
    }

    #[test]
    fn lower_bound_is_positive_and_below_leading_term() {
        for q in [2usize, 3, 5, 7] {
            let p = spherical_procs(q);
            let n = (q * q + 1) * q * (q + 1) * 4;
            let lb = lower_bound_words(n, p);
            assert!(lb > 0.0);
            assert!(lb <= lower_bound_leading(n, p));
        }
    }

    #[test]
    fn scheduled_cost_approaches_lower_bound() {
        // The ratio (algorithm cost)/(lower bound) is ≥ 1 and converges to 1
        // like 1 + O(1/q): the leading coefficient (the constant 2 in
        // 2n/P^{1/3}) matches exactly, which is the paper's tightness claim.
        let mut prev_ratio = f64::INFINITY;
        for q in [2usize, 3, 4, 5, 7, 9, 11, 13] {
            let p = spherical_procs(q);
            let n = (q * q + 1) * q * (q + 1) * 8;
            let algo = scheduled_words_total(n, q) as f64;
            let lb = lower_bound_words(n, p);
            let ratio = algo / lb;
            assert!(ratio >= 0.99, "algorithm can't beat the bound: q={q} ratio={ratio}");
            assert!(ratio <= 1.0 + 2.0 / q as f64, "q={q}: ratio {ratio} too far from 1");
            assert!(ratio < prev_ratio + 0.02, "ratio should shrink with q: q={q}");
            prev_ratio = ratio;
        }
        assert!(prev_ratio < 1.09, "at q=13 the ratio must be within 9% of 1, got {prev_ratio}");
    }

    #[test]
    fn alltoall_vs_scheduled_ratio_approaches_two() {
        // §7.2.2: the collective variant costs 2(q²+1)/(q+1)² × the
        // scheduled one, which rises toward 2 as q grows.
        let mut prev = 0.0;
        for q in [3usize, 5, 7, 9, 13] {
            let n = (q * q + 1) * q * (q + 1) * 4;
            let ratio = alltoall_words_total(n, q) as f64 / scheduled_words_total(n, q) as f64;
            assert!(ratio > 1.2 && ratio < 2.0, "q={q}: ratio {ratio}");
            assert!(ratio > prev, "ratio should grow with q");
            prev = ratio;
        }
        assert!(prev > 1.7, "at q=13 the ratio must be close to 2, got {prev}");
    }

    #[test]
    fn comp_cost_upper_close_to_leading() {
        for q in [3usize, 5, 7] {
            let b = q * (q + 1) * 4;
            let n = (q * q + 1) * b;
            let p = spherical_procs(q);
            let upper = comp_cost_upper(q, b) as f64;
            let leading = comp_cost_leading(n, p);
            assert!(upper >= leading * 0.95);
            assert!(upper <= leading * 1.5, "q={q}: {upper} vs {leading}");
        }
    }

    #[test]
    fn tensor_storage_close_to_ideal() {
        for q in [3usize, 5] {
            let b = q * (q + 1);
            let n = (q * q + 1) * b;
            let p = spherical_procs(q);
            let upper = tensor_words_upper(q, b) as f64;
            let ideal = (n as f64).powi(3) / (6.0 * p as f64);
            assert!(upper >= ideal * 0.9);
            assert!(upper <= ideal * 1.6, "q={q}: {upper} vs {ideal}");
        }
    }

    #[test]
    fn strict_tetra_small_cases() {
        assert_eq!(strict_tetra(0), 0);
        assert_eq!(strict_tetra(2), 0);
        assert_eq!(strict_tetra(3), 1);
        assert_eq!(strict_tetra(4), 4);
        assert_eq!(strict_tetra(10), 120);
    }

    #[test]
    fn lower_bound_clamps_at_zero_for_degenerate_dimensions() {
        // n < 3: the strict tetrahedron is empty, the raw formula is
        // negative, and the bound must clamp to 0 (a word count).
        for n in 0usize..3 {
            for p in [1usize, 2, 30, 350] {
                assert_eq!(lower_bound_words(n, p), 0.0, "n={n} P={p}");
            }
        }
        // And it stays non-negative everywhere.
        for n in 3usize..50 {
            for p in [1usize, 6, 30, 350] {
                assert!(lower_bound_words(n, p) >= 0.0, "n={n} P={p}");
            }
        }
    }

    #[test]
    fn f64_twins_agree_with_integer_versions_when_divisible() {
        for q in [2usize, 3, 5, 7] {
            for mult in [1usize, 2, 8] {
                let n = (q * q + 1) * q * (q + 1) * mult;
                assert_eq!(
                    scheduled_words_per_vector(n, q) as f64,
                    scheduled_words_per_vector_f64(n, q),
                    "scheduled n={n} q={q}"
                );
                assert_eq!(
                    scheduled_words_total(n, q) as f64,
                    scheduled_words_total_f64(n, q),
                    "scheduled total n={n} q={q}"
                );
                assert_eq!(
                    alltoall_words_total(n, q) as f64,
                    alltoall_words_total_f64(n, q),
                    "alltoall n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn f64_twins_are_finite_and_positive_for_arbitrary_n() {
        // The integer versions would truncate (alltoall even returns 0 for
        // small non-divisible n, which is why the guards exist); the f64
        // twins must stay exact models for any n.
        for q in [2usize, 3, 5] {
            for n in [1usize, 17, 100, 513, 1000] {
                let s = scheduled_words_per_vector_f64(n, q);
                let a = alltoall_words_total_f64(n, q);
                assert!(s.is_finite() && s >= 0.0, "scheduled n={n} q={q}: {s}");
                assert!(a.is_finite() && a > 0.0, "alltoall n={n} q={q}: {a}");
                // §7.2.2 relation: collective ≤ 2× scheduled-per-vector×2.
                assert!(a <= 2.0 * 2.0 * s + 4.0 * n as f64 / spherical_procs(q) as f64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "scheduled_words_per_vector")]
    #[cfg(debug_assertions)]
    fn scheduled_guard_fires_on_non_divisible_n() {
        // n = 17 violates (q²+1) | n for q = 2.
        let _ = scheduled_words_per_vector(17, 2);
    }

    #[test]
    #[should_panic(expected = "alltoall_words_total")]
    #[cfg(debug_assertions)]
    fn alltoall_guard_fires_on_non_divisible_n() {
        // n = 15 = 3·(q²+1) for q = 2 but 2b = 6 is precisely divisible...
        // pick n = 10: b = 2, 2b = 4, q(q+1) = 6 ∤ 4.
        let _ = alltoall_words_total(10, 2);
    }

    #[test]
    fn comp_cost_upper_is_attained_by_central_block_owners() {
        // The §7.1 bound is exactly the work of a rank owning a central
        // diagonal block: (q+1)q(q−1)/6 off-diagonal + q non-central +
        // 1 central block. Check it is the maximum over ranks and attained.
        use crate::partition::TetraPartition;
        use symtensor_steiner::spherical;
        for q in [2usize, 3] {
            let b = q * (q + 1);
            let n = (q * q + 1) * b;
            let part = TetraPartition::new(spherical(q as u64), n).unwrap();
            let max_work = (0..part.num_procs()).map(|p| part.ternary_mults(p)).max().unwrap();
            assert_eq!(max_work, comp_cost_upper(q, b), "q={q}");
        }
    }
}
