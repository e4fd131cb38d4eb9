//! The full tetrahedral data distribution of Section 6.1.
//!
//! Given a Steiner `(m, r, 3)` system with `P` blocks and a tensor dimension
//! `n = m·b`, processor `p` owns
//!
//! * the off-diagonal tensor blocks `TB₃(R_p)` (its Steiner block `R_p`),
//! * `d = r(r−1)/λ₂` non-central diagonal blocks `N_p` assigned via `d`
//!   disjoint matchings (Corollary 6.7) so that every `N_p` block's row
//!   indices lie inside `R_p`,
//! * at most one central diagonal block `D_p` assigned via a Hall matching,
//!   again with its index inside `R_p`,
//!
//! and, for each row block `i ∈ R_p`, an equal shard of the input and
//! output vectors, shared with the other processors of
//! `Q_i = {p : i ∈ R_p}` (|Q_i| = λ₁).
//!
//! Because every block a processor owns draws its indices from `R_p`, the
//! owner-compute rule needs **only** the vector row blocks `R_p` — no tensor
//! entry ever moves, which is what makes the lower bound attainable.

use crate::tetra::{entries_in_block, tb3, ternary_mults_in_block, BlockIdx, BlockKind};
use symtensor_matching::{disjoint_left_saturating_matchings, hopcroft_karp, BipartiteGraph};
use symtensor_steiner::{blocks_through_element, blocks_through_pair, SteinerSystem};

/// Errors from partition construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// `n` is not a multiple of the number of row blocks `m`.
    DimensionNotDivisible {
        /// The rejected tensor dimension.
        n: usize,
        /// The system's point count.
        m: usize,
    },
    /// The per-processor non-central block count `r(r−1)/λ₂` is fractional.
    NonCentralCountFractional {
        /// The system's block size.
        r: usize,
        /// Blocks through a pair of points.
        lambda2: usize,
    },
    /// The matching for non-central diagonal blocks does not exist (never
    /// happens for valid Steiner systems; guards corrupted input).
    NonCentralMatchingFailed,
    /// The matching for central diagonal blocks does not exist.
    CentralMatchingFailed,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::DimensionNotDivisible { n, m } => {
                write!(f, "tensor dimension {n} is not a multiple of {m} row blocks (pad first)")
            }
            PartitionError::NonCentralCountFractional { r, lambda2 } => {
                write!(f, "r(r-1)/λ₂ = {}·{}/{lambda2} is not an integer", r, r - 1)
            }
            PartitionError::NonCentralMatchingFailed => {
                write!(f, "no valid assignment of non-central diagonal blocks")
            }
            PartitionError::CentralMatchingFailed => {
                write!(f, "no valid assignment of central diagonal blocks")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// The complete data distribution for one Steiner system and one tensor
/// dimension.
#[derive(Clone, Debug)]
pub struct TetraPartition {
    system: SteinerSystem,
    n: usize,
    b: usize,
    lambda1: usize,
    lambda2: usize,
    /// `Q_i`: processors requiring row block `i` (sorted).
    q_sets: Vec<Vec<usize>>,
    /// `N_p`: non-central diagonal blocks per processor.
    n_sets: Vec<Vec<BlockIdx>>,
    /// `D_p`: the central diagonal block owned by processor `p`, if any.
    d_sets: Vec<Option<usize>>,
}

impl TetraPartition {
    /// Builds the distribution. `n` must be a multiple of the system's point
    /// count `m` (use [`TetraPartition::padded_dim`] + zero-padding
    /// otherwise).
    pub fn new(system: SteinerSystem, n: usize) -> Result<Self, PartitionError> {
        let m = system.num_points();
        let r = system.block_size();
        let p_count = system.num_blocks();
        if n % m != 0 {
            return Err(PartitionError::DimensionNotDivisible { n, m });
        }
        let b = n / m;
        let lambda1 = blocks_through_element(m, r);
        let lambda2 = blocks_through_pair(m, r);
        let q_sets = system.point_to_blocks();

        // --- Non-central diagonal blocks via d disjoint matchings. ---
        if (r * (r - 1)) % lambda2 != 0 {
            return Err(PartitionError::NonCentralCountFractional { r, lambda2 });
        }
        let d = r * (r - 1) / lambda2;
        // Right vertices: for each ordered pair a > b, the blocks (a,a,b)
        // and (a,b,b).
        let mut y_blocks: Vec<BlockIdx> = Vec::with_capacity(m * (m - 1));
        for a in 1..m {
            for bb in 0..a {
                y_blocks.push(BlockIdx { i: a, j: a, k: bb });
                y_blocks.push(BlockIdx { i: a, j: bb, k: bb });
            }
        }
        debug_assert_eq!(y_blocks.len(), m * (m - 1));
        debug_assert_eq!(d * p_count, y_blocks.len());
        let mut graph = BipartiteGraph::new(p_count, y_blocks.len());
        for (p, rp) in system.blocks().iter().enumerate() {
            for (yi, blk) in y_blocks.iter().enumerate() {
                let (a, bb) = (blk.i, blk.k.min(blk.j));
                let hi = a;
                let lo = if blk.kind() == BlockKind::NonCentralIIK { blk.k } else { bb };
                if rp.binary_search(&hi).is_ok() && rp.binary_search(&lo).is_ok() {
                    graph.add_edge(p, yi);
                }
            }
        }
        let matchings = disjoint_left_saturating_matchings(&graph, d)
            .ok_or(PartitionError::NonCentralMatchingFailed)?;
        let mut n_sets: Vec<Vec<BlockIdx>> = vec![Vec::with_capacity(d); p_count];
        for matching in &matchings {
            for (p, y) in matching.iter().enumerate() {
                n_sets[p].push(y_blocks[y.expect("saturating matching")]);
            }
        }
        for set in &mut n_sets {
            set.sort_unstable();
        }

        // --- Central diagonal blocks via a Hall matching. ---
        let mut central_graph = BipartiteGraph::new(m, p_count);
        for (p, rp) in system.blocks().iter().enumerate() {
            for &i in rp {
                central_graph.add_edge(i, p);
            }
        }
        let central = hopcroft_karp(&central_graph);
        let mut d_sets: Vec<Option<usize>> = vec![None; p_count];
        for (i, proc) in central.iter().enumerate() {
            let p = proc.ok_or(PartitionError::CentralMatchingFailed)?;
            debug_assert!(d_sets[p].is_none());
            d_sets[p] = Some(i);
        }

        Ok(TetraPartition { system, n, b, lambda1, lambda2, q_sets, n_sets, d_sets })
    }

    /// The smallest `n' ≥ n` usable with an `m`-point system such that the
    /// vector shards divide evenly: `m·λ₁ | n'`.
    pub fn padded_dim(system: &SteinerSystem, n: usize) -> usize {
        let m = system.num_points();
        let lambda1 = blocks_through_element(m, system.block_size());
        let unit = m * lambda1;
        n.div_ceil(unit) * unit
    }

    /// The underlying Steiner system.
    pub fn system(&self) -> &SteinerSystem {
        &self.system
    }

    /// Tensor dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Row-block size `b = n/m`.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Number of row blocks `m`.
    pub fn num_row_blocks(&self) -> usize {
        self.system.num_points()
    }

    /// Number of processors `P`.
    pub fn num_procs(&self) -> usize {
        self.system.num_blocks()
    }

    /// `λ₁`: processors sharing each row block.
    pub fn lambda1(&self) -> usize {
        self.lambda1
    }

    /// `λ₂`: processors sharing each **pair** of row blocks.
    pub fn lambda2(&self) -> usize {
        self.lambda2
    }

    /// `R_p`: the row-block indices owned by processor `p` (sorted).
    pub fn r_set(&self, p: usize) -> &[usize] {
        &self.system.blocks()[p]
    }

    /// `Q_i`: the processors requiring row block `i` (sorted).
    pub fn q_set(&self, i: usize) -> &[usize] {
        &self.q_sets[i]
    }

    /// `N_p`: the non-central diagonal blocks owned by `p`.
    pub fn n_set(&self, p: usize) -> &[BlockIdx] {
        &self.n_sets[p]
    }

    /// `D_p`: the central diagonal block owned by `p`, if any.
    pub fn d_set(&self, p: usize) -> Option<usize> {
        self.d_sets[p]
    }

    /// All tensor blocks owned by `p`: `TB₃(R_p) ∪ N_p ∪ D_p`.
    pub fn owned_blocks(&self, p: usize) -> Vec<BlockIdx> {
        let mut blocks = tb3(self.r_set(p));
        blocks.extend_from_slice(&self.n_sets[p]);
        if let Some(i) = self.d_sets[p] {
            blocks.push(BlockIdx { i, j: i, k: i });
        }
        blocks.sort_unstable();
        blocks
    }

    /// Global index range of row block `i`.
    pub fn block_range(&self, i: usize) -> std::ops::Range<usize> {
        i * self.b..(i + 1) * self.b
    }

    /// Local (within-row-block) index range of the shard of row block `i`
    /// owned by the processor at position `t` in `Q_i`. Shards are
    /// contiguous, ordered by `Q_i` position, with sizes differing by at
    /// most one when `λ₁ ∤ b`.
    pub fn shard_bounds(&self, t: usize) -> std::ops::Range<usize> {
        let l = self.lambda1;
        debug_assert!(t < l);
        (t * self.b) / l..((t + 1) * self.b) / l
    }

    /// Local shard range of row block `i` owned by processor `p`
    /// (`p ∈ Q_i`).
    pub fn shard_range(&self, i: usize, p: usize) -> std::ops::Range<usize> {
        let t = self.q_sets[i].binary_search(&p).expect("p must be in Q_i");
        self.shard_bounds(t)
    }

    /// Global index range of processor `p`'s shard of row block `i`
    /// (`p ∈ Q_i`).
    fn shard_span(&self, i: usize, p: usize) -> std::ops::Range<usize> {
        let local = self.shard_range(i, p);
        i * self.b + local.start..i * self.b + local.end
    }

    /// Processor `p`'s shards of the global vector `x` (`dim()` long), one
    /// per row block of `R_p` in ascending order — the Section 6.1.2
    /// vector distribution every driver starts from.
    pub fn shards_of(&self, p: usize, x: &[f64]) -> Vec<Vec<f64>> {
        self.r_set(p).iter().map(|&i| x[self.shard_span(i, p)].to_vec()).collect()
    }

    /// Writes processor `p`'s shards (keyed as [`TetraPartition::shards_of`]
    /// returns them) into their places in the global vector `y`.
    pub fn place_shards(&self, p: usize, shards: &[Vec<f64>], y: &mut [f64]) {
        for (&i, shard) in self.r_set(p).iter().zip(shards) {
            y[self.shard_span(i, p)].copy_from_slice(shard);
        }
    }

    /// Tensor words stored by processor `p` (Section 6.1.3 counts).
    pub fn tensor_words(&self, p: usize) -> usize {
        self.owned_blocks(p).iter().map(|blk| entries_in_block(blk.kind(), self.b)).sum()
    }

    /// Vector words owned by processor `p` per vector (x or y).
    pub fn vector_words(&self, p: usize) -> usize {
        self.r_set(p).iter().map(|&i| self.shard_range(i, p).len()).sum()
    }

    /// Model ternary multiplications processor `p` performs (Section 7.1).
    pub fn ternary_mults(&self, p: usize) -> u64 {
        self.owned_blocks(p).iter().map(|blk| ternary_mults_in_block(blk.kind(), self.b)).sum()
    }

    /// Verifies the distribution invariants: each lower-tetrahedron block
    /// owned exactly once, diagonal assignments compatible with `R_p`, and
    /// `Q_i` consistent with the `R_p` sets. Used in tests and by callers
    /// that construct systems from untrusted input.
    pub fn verify(&self) -> Result<(), String> {
        let m = self.num_row_blocks();
        let mut owner: std::collections::HashMap<BlockIdx, usize> =
            std::collections::HashMap::new();
        for p in 0..self.num_procs() {
            for blk in self.owned_blocks(p) {
                if let Some(prev) = owner.insert(blk, p) {
                    return Err(format!("block {blk:?} owned by both {prev} and {p}"));
                }
            }
            // Compatibility: all indices of owned blocks lie in R_p.
            let rp = self.r_set(p);
            for blk in self.owned_blocks(p) {
                for idx in [blk.i, blk.j, blk.k] {
                    if rp.binary_search(&idx).is_err() {
                        return Err(format!(
                            "processor {p} owns block {blk:?} with index {idx} ∉ R_p"
                        ));
                    }
                }
            }
        }
        let expected = m * (m + 1) * (m + 2) / 6;
        if owner.len() != expected {
            return Err(format!("{} blocks owned, expected {expected}", owner.len()));
        }
        // Q_i consistency and shard tiling.
        for i in 0..m {
            for &p in self.q_set(i) {
                if self.r_set(p).binary_search(&i).is_err() {
                    return Err(format!("Q_{i} lists {p} but i ∉ R_p"));
                }
            }
            if self.q_set(i).len() != self.lambda1 {
                return Err(format!("|Q_{i}| = {} ≠ λ₁ = {}", self.q_set(i).len(), self.lambda1));
            }
            let mut covered = 0;
            for t in 0..self.lambda1 {
                let range = self.shard_bounds(t);
                if range.start != covered {
                    return Err(format!("shard gap in row block {i}"));
                }
                covered = range.end;
            }
            if covered != self.b {
                return Err(format!("shards of row block {i} do not tile it"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symtensor_steiner::{spherical, sqs8};

    #[test]
    fn shards_tile_the_vector_exactly_once() {
        // n = 20 with q = 2: b = 4 < λ₁ = 6, so some shards are empty.
        for n in [20usize, 30] {
            let part = TetraPartition::new(spherical(2), n).unwrap();
            let x: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let mut y = vec![0.0; n];
            let mut words = 0;
            for p in 0..part.num_procs() {
                let shards = part.shards_of(p, &x);
                words += shards.iter().map(Vec::len).sum::<usize>();
                assert_eq!(shards.len(), part.r_set(p).len());
                part.place_shards(p, &shards, &mut y);
            }
            assert_eq!(words, n, "every entry owned by exactly one rank");
            assert_eq!(y, x);
        }
    }

    #[test]
    fn q3_partition_counts_match_paper() {
        // m = 10, P = 30, |R_p| = 4, |N_p| = q = 3, |D_p| ∈ {0, 1}.
        let part = TetraPartition::new(spherical(3), 120).unwrap();
        assert_eq!(part.num_procs(), 30);
        assert_eq!(part.num_row_blocks(), 10);
        assert_eq!(part.block_size(), 12);
        assert_eq!(part.lambda1(), 12);
        assert_eq!(part.lambda2(), 4);
        for p in 0..30 {
            assert_eq!(part.r_set(p).len(), 4);
            assert_eq!(part.n_set(p).len(), 3);
        }
        // Exactly m = 10 processors get a central block.
        let with_central = (0..30).filter(|&p| part.d_set(p).is_some()).count();
        assert_eq!(with_central, 10);
        part.verify().unwrap();
    }

    #[test]
    fn sqs8_partition_matches_table3_shape() {
        // m = 8, P = 14, |N_p| = 4, 8 central blocks.
        let part = TetraPartition::new(sqs8(), 56).unwrap();
        assert_eq!(part.num_procs(), 14);
        assert_eq!(part.lambda1(), 7);
        assert_eq!(part.lambda2(), 3);
        for p in 0..14 {
            assert_eq!(part.n_set(p).len(), 4);
        }
        let with_central = (0..14).filter(|&p| part.d_set(p).is_some()).count();
        assert_eq!(with_central, 8);
        part.verify().unwrap();
    }

    #[test]
    fn q2_partition() {
        let part = TetraPartition::new(spherical(2), 30).unwrap();
        assert_eq!(part.num_procs(), 10);
        part.verify().unwrap();
    }

    #[test]
    fn q4_partition() {
        let part = TetraPartition::new(spherical(4), 17 * 20).unwrap();
        assert_eq!(part.num_procs(), 68);
        part.verify().unwrap();
    }

    #[test]
    fn tensor_words_near_ideal() {
        // Section 6.1.3: each processor stores ≈ n³/(6P) tensor words.
        let n = 240;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let ideal = (n * n * n) as f64 / (6.0 * 30.0);
        for p in 0..30 {
            let words = part.tensor_words(p) as f64;
            assert!(
                (words - ideal).abs() / ideal < 0.15,
                "processor {p}: {words} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn vector_words_equal_n_over_p() {
        // Section 6.1.2: each processor owns exactly n/P vector words
        // when shards divide evenly.
        let n = 120; // b = 12 = λ₁ exactly.
        let part = TetraPartition::new(spherical(3), n).unwrap();
        for p in 0..30 {
            assert_eq!(part.vector_words(p), n / 30, "processor {p}");
        }
    }

    #[test]
    fn ternary_mults_sum_to_global_total() {
        let n = 60;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let total: u64 = (0..30).map(|p| part.ternary_mults(p)).sum();
        let n64 = n as u64;
        assert_eq!(total, n64 * n64 * (n64 + 1) / 2);
    }

    #[test]
    fn padded_dim_is_minimal_multiple() {
        let sys = spherical(3);
        // unit = m·λ₁ = 120.
        assert_eq!(TetraPartition::padded_dim(&sys, 1), 120);
        assert_eq!(TetraPartition::padded_dim(&sys, 120), 120);
        assert_eq!(TetraPartition::padded_dim(&sys, 121), 240);
    }

    #[test]
    fn rejects_indivisible_dimension() {
        assert!(matches!(
            TetraPartition::new(spherical(3), 55),
            Err(PartitionError::DimensionNotDivisible { .. })
        ));
    }

    #[test]
    fn shard_ranges_are_disjoint_and_ordered() {
        let part = TetraPartition::new(spherical(2), 60).unwrap();
        for i in 0..part.num_row_blocks() {
            let mut end = 0;
            for &p in part.q_set(i) {
                let range = part.shard_range(i, p);
                assert_eq!(range.start, end);
                end = range.end;
            }
            assert_eq!(end, part.block_size());
        }
    }
}
